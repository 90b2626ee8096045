package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"

	"connquery/internal/core"
	"connquery/internal/dataset"
	"connquery/internal/flatgeom"
	"connquery/internal/geom"
	"connquery/internal/lru"
	"connquery/internal/rtree"
	"connquery/internal/stats"
)

// Defaults from the paper's Table 2 (bold entries).
const (
	DefaultQL      = 0.045 // query length: 4.5% of the space side
	DefaultK       = 5
	DefaultRatio   = 1.0 // |P|/|O|
	DefaultQueries = 100
)

// Workload is a prepared dataset combination.
type Workload struct {
	Name      string // "CL", "UL" or "ZL"
	Points    []geom.Point
	Obstacles []geom.Rect
}

// WorkloadNames lists the dataset combinations BuildWorkload builds.
var WorkloadNames = []string{"CL", "UL", "ZL"}

// CheckWorkload reports an error naming the valid combinations when name is
// not one of WorkloadNames; BuildWorkload panics on such a name, so
// command-line callers check first.
func CheckWorkload(name string) error {
	if slices.Contains(WorkloadNames, name) {
		return nil
	}
	return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(WorkloadNames, ", "))
}

// BuildWorkload constructs one of the paper's dataset combinations at the
// given scale. ratio sets |P|/|O| for the synthetic point sets (UL, ZL); CL
// uses the CA surrogate's own cardinality, as in the paper.
func BuildWorkload(name string, scale, ratio float64, seed int64) Workload {
	nObs := int(float64(dataset.LASize) * scale)
	obstacles := dataset.Streets(nObs, seed)
	var points []geom.Point
	switch name {
	case "CL":
		nPts := int(float64(dataset.CASize) * scale)
		points = dataset.Clustered(nPts, 24, dataset.Side*0.035, 0.15, seed+1)
	case "UL":
		points = dataset.Uniform(int(float64(nObs)*ratio), seed+1)
	case "ZL":
		points = dataset.Zipf(int(float64(nObs)*ratio), 0.8, seed+1)
	default:
		panic("bench: unknown workload " + name)
	}
	points = dataset.FilterPoints(points, obstacles)
	return Workload{Name: name, Points: points, Obstacles: obstacles}
}

// RunConfig parametrizes one experiment cell.
type RunConfig struct {
	QL         float64 // query segment length as a fraction of the side
	K          int
	Queries    int
	BufferFrac float64 // LRU capacity as a fraction of each tree's pages
	WarmUp     int     // queries executed before counters reset (Figure 12)
	OneTree    bool
	// UseCONN runs the k=1 CONN algorithm (Algorithm 4 with RLU) instead of
	// the COkNN generalization; the Lemma 1 shortcut only exists on that
	// path, so the ablation sweep uses it.
	UseCONN bool
	Seed    int64
	Tuning  core.Options
}

func (c RunConfig) withDefaults() RunConfig {
	if c.QL == 0 {
		c.QL = DefaultQL
	}
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.Queries == 0 {
		c.Queries = DefaultQueries
	}
	return c
}

// Cell is the measured outcome of one experiment cell.
type Cell struct {
	Mean stats.MeanMetrics
	Full int // 4 * |O|: the global visibility graph size, Figure 9(b)'s FULL
}

// Run executes cfg.Queries random COkNN queries over the workload and
// returns mean metrics, reproducing the paper's methodology (random start
// and orientation, length ql, metrics averaged; with WarmUp > 0 the first
// WarmUp queries only populate the buffer).
func Run(w Workload, cfg RunConfig) Cell {
	cfg = cfg.withDefaults()
	eng, bufs := buildEngine(w, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	var agg stats.Aggregate
	total := cfg.WarmUp + cfg.Queries
	for i := 0; i < total; i++ {
		q := dataset.QuerySegment(rng, cfg.QL, w.Obstacles)
		if i == cfg.WarmUp {
			for _, b := range bufs {
				b.ResetStats()
			}
		}
		var m stats.QueryMetrics
		if cfg.UseCONN {
			_, m = eng.CONN(q)
		} else {
			_, m = eng.COkNN(q, cfg.K)
		}
		if i >= cfg.WarmUp {
			agg.Add(m)
		}
	}
	return Cell{Mean: agg.Mean(), Full: 4 * len(w.Obstacles)}
}

// buildEngine assembles the engine with page counters and optional buffers.
func buildEngine(w Workload, cfg RunConfig) (*core.Engine, []*lru.Buffer) {
	pointItems := make([]rtree.Item, len(w.Points))
	for i, p := range w.Points {
		pointItems[i] = rtree.PointItem(int32(i), p)
	}
	obstItems := make([]rtree.Item, len(w.Obstacles))
	for i, o := range w.Obstacles {
		obstItems[i] = rtree.ObstacleItem(int32(i), o)
	}
	eng := &core.Engine{Obstacles: w.Obstacles, Kernel: flatgeom.NewKernel(w.Obstacles), Opts: cfg.Tuning}
	var bufs []*lru.Buffer
	if cfg.OneTree {
		uni := rtree.New(rtree.Options{})
		uni.BulkLoad(append(pointItems, obstItems...))
		c := &stats.PageCounter{}
		if cfg.BufferFrac > 0 {
			b := lru.New(bufferPages(cfg.BufferFrac, uni.NumNodes()))
			c.Buffer = b
			bufs = append(bufs, b)
		}
		uni.SetAccessRecorder(c)
		eng.Unified, eng.DataCounter = uni, c
		return eng, bufs
	}
	data := rtree.New(rtree.Options{})
	data.BulkLoad(pointItems)
	obst := rtree.New(rtree.Options{})
	obst.BulkLoad(obstItems)
	dc, oc := &stats.PageCounter{}, &stats.PageCounter{}
	if cfg.BufferFrac > 0 {
		db := lru.New(bufferPages(cfg.BufferFrac, data.NumNodes()))
		ob := lru.New(bufferPages(cfg.BufferFrac, obst.NumNodes()))
		dc.Buffer, oc.Buffer = db, ob
		bufs = append(bufs, db, ob)
	}
	data.SetAccessRecorder(dc)
	obst.SetAccessRecorder(oc)
	eng.Data, eng.Obst, eng.DataCounter, eng.ObstCounter = data, obst, dc, oc
	return eng, bufs
}

// bufferPages converts a buffer fraction into a page capacity, rounding up
// so that small fractions of small (scaled-down) trees still buffer at
// least the root page, mirroring how a real buffer pool would pin the root.
func bufferPages(frac float64, nodes int) int {
	p := int(math.Ceil(frac * float64(nodes)))
	if p < 1 {
		p = 1
	}
	return p
}

// header prints the standard table header.
func header(out io.Writer, param string) {
	fmt.Fprintf(out, "%-10s %12s %12s %12s %8s %8s %8s %10s\n",
		param, "io(ms)", "cpu(ms)", "total(ms)", "NPE", "NOE", "|SVG|", "FULL")
}

func row(out io.Writer, label string, c Cell) {
	m := c.Mean
	fmt.Fprintf(out, "%-10s %12.1f %12.3f %12.1f %8.1f %8.1f %8.1f %10d\n",
		label,
		float64(m.IOTime().Microseconds())/1000,
		float64(m.CPU.Microseconds())/1000,
		float64(m.TotalCost().Microseconds())/1000,
		m.NPE, m.NOE, m.SVG, c.Full)
}
