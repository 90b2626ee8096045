package bench

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"connquery/internal/dataset"
	"connquery/internal/geom"
	"connquery/internal/stats"
)

// BenchResult is one machine-readable record of the Table 2 default cell,
// emitted as BENCH_<name>.json by `connbench -json`. NPE, NOE and |SVG| are
// machine-independent and pinned exactly (connbench -metrics-baseline); the
// timing and allocation fields describe the run that wrote the record and
// are never compared across runs.
type BenchResult struct {
	Name        string  `json:"name"`
	Tool        string  `json:"tool"` // what produced the numbers and how
	Scale       float64 `json:"scale"`
	Queries     int     `json:"queries"`
	Seed        int64   `json:"seed"`
	K           int     `json:"k"`
	QL          float64 `json:"ql"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	NPE         float64 `json:"npe"`
	NOE         float64 `json:"noe"`
	SVG         float64 `json:"svg"`
	Timestamp   string  `json:"timestamp"`
}

// MeasureTable2With measures the paper's default parameter cell (CL, k = 5,
// ql = 4.5%, |P|/|O| = 1, no buffer) through an arbitrary runner: open
// builds the query executor over the prepared workload (an engine, a public
// DB, a sharded router, ...), and the returned closure answers one
// COkNN-cell query and reports its metrics. Index construction is excluded.
// The workload, query stream, warm-up and allocator accounting are the same
// for every runner, so records produced through different runners describe
// the same query stream.
func MeasureTable2With(cfg Config, tool string, open func(w Workload) func(q geom.Segment) stats.QueryMetrics) BenchResult {
	cfg = cfg.norm()
	w := BuildWorkload("CL", cfg.Scale, DefaultRatio, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	queries := make([]geom.Segment, cfg.Queries)
	for i := range queries {
		queries[i] = dataset.QuerySegment(rng, DefaultQL, w.Obstacles)
	}
	run := open(w)
	// Warm the pooled query state so steady-state costs are measured, then
	// snapshot allocator counters around the timed loop.
	run(queries[0])

	var agg stats.Aggregate
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, q := range queries {
		agg.Add(run(q))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	mean := agg.Mean()
	ops := float64(len(queries))
	return BenchResult{
		Name:        "table2_defaults",
		Tool:        tool,
		Scale:       cfg.Scale,
		Queries:     cfg.Queries,
		Seed:        cfg.Seed,
		K:           DefaultK,
		QL:          DefaultQL,
		NsPerOp:     float64(elapsed.Nanoseconds()) / ops,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / ops,
		NPE:         mean.NPE,
		NOE:         mean.NOE,
		SVG:         mean.SVG,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
}

// ReadJSON loads a BenchResult record (e.g. a pinned baseline) from path.
func ReadJSON(path string) (BenchResult, error) {
	var r BenchResult
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, err
	}
	return r, nil
}

// WriteJSON writes r to dir/BENCH_<name>.json and returns the path.
func WriteJSON(dir string, r BenchResult) (string, error) {
	path := filepath.Join(dir, "BENCH_"+r.Name+".json")
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
