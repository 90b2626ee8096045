package connquery

// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark iteration executes one full COkNN query (or the figure's
// specific variant) over the paper's workload at a reduced dataset scale so
// `go test -bench=.` completes on a laptop; `cmd/connbench` runs the same
// sweeps at arbitrary scale with tabular output. These are tools for
// measuring while you work; the repo's accepted performance numbers come
// from the benchmark/ module (see benchmark/README.md).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"connquery/internal/bench"
	"connquery/internal/core"
	"connquery/internal/dataset"
	"connquery/internal/geom"
)

// benchScale keeps `go test -bench` runs tractable. connbench defaults to
// 0.1 and supports 1.0 (the paper's cardinalities).
const benchScale = 0.02

var workloadCache = map[string]bench.Workload{}

func workload(name string, ratio float64) bench.Workload {
	key := fmt.Sprintf("%s/%g", name, ratio)
	w, ok := workloadCache[key]
	if !ok {
		w = bench.BuildWorkload(name, benchScale, ratio, 2009)
		workloadCache[key] = w
	}
	return w
}

func runQueries(b *testing.B, w bench.Workload, cfg bench.RunConfig) {
	b.Helper()
	cfg.Queries = 1
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		bench.Run(w, cfg)
	}
}

// BenchmarkTable2Defaults runs the paper's default parameter cell
// (CL, k = 5, ql = 4.5%, |P|/|O| = 1, no buffer) — Table 2's bold entries.
func BenchmarkTable2Defaults(b *testing.B) {
	runQueries(b, workload("CL", 1), bench.RunConfig{QL: 0.045, K: 5})
}

// BenchmarkFig09_QueryLength sweeps ql on CL with k = 5 (Figure 9a/9b).
func BenchmarkFig09_QueryLength(b *testing.B) {
	for _, ql := range bench.QLGrid {
		b.Run(fmt.Sprintf("ql=%.1f%%", ql*100), func(b *testing.B) {
			runQueries(b, workload("CL", 1), bench.RunConfig{QL: ql, K: 5})
		})
	}
}

// BenchmarkFig10_K sweeps k on CL with ql = 4.5% (Figure 10a/10b).
func BenchmarkFig10_K(b *testing.B) {
	for _, k := range bench.KGrid {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runQueries(b, workload("CL", 1), bench.RunConfig{QL: 0.045, K: k})
		})
	}
}

// BenchmarkFig11_Ratio sweeps |P|/|O| on UL and ZL (Figure 11a-d).
func BenchmarkFig11_Ratio(b *testing.B) {
	for _, name := range []string{"UL", "ZL"} {
		for _, ratio := range bench.RatioGrid {
			b.Run(fmt.Sprintf("%s/ratio=%g", name, ratio), func(b *testing.B) {
				runQueries(b, workload(name, ratio), bench.RunConfig{QL: 0.045, K: 5})
			})
		}
	}
}

// BenchmarkFig12_Buffer sweeps the LRU buffer size on CL and UL
// (Figure 12a-d).
func BenchmarkFig12_Buffer(b *testing.B) {
	for _, name := range []string{"CL", "UL"} {
		for _, bs := range append([]float64{0}, bench.BufferGrid...) {
			b.Run(fmt.Sprintf("%s/bs=%.0f%%", name, bs*100), func(b *testing.B) {
				runQueries(b, workload(name, 1), bench.RunConfig{QL: 0.045, K: 5, BufferFrac: bs, WarmUp: 2})
			})
		}
	}
}

// BenchmarkFig13_OneVsTwoTrees compares the unified-tree variant with the
// default two-tree configuration (Figure 13a-f).
func BenchmarkFig13_OneVsTwoTrees(b *testing.B) {
	for _, mode := range []struct {
		name    string
		oneTree bool
	}{{"2T", false}, {"1T", true}} {
		for _, name := range []string{"CL", "UL"} {
			b.Run(fmt.Sprintf("%s/%s", mode.name, name), func(b *testing.B) {
				runQueries(b, workload(name, 1), bench.RunConfig{QL: 0.045, K: 5, OneTree: mode.oneTree})
			})
		}
	}
}

// Ablation benches (DESIGN.md §7): each design choice against its disabled
// variant on the default cell.
func benchAblation(b *testing.B, tuning core.Options) {
	runQueries(b, workload("CL", 1), bench.RunConfig{QL: 0.045, K: 5, Tuning: tuning})
}

func BenchmarkAblationLemma1(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchAblation(b, core.Options{}) })
	b.Run("off", func(b *testing.B) { benchAblation(b, core.Options{DisableLemma1: true}) })
}

func BenchmarkAblationLemma7(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchAblation(b, core.Options{}) })
	b.Run("off", func(b *testing.B) { benchAblation(b, core.Options{DisableLemma7: true}) })
}

func BenchmarkAblationVGReuse(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchAblation(b, core.Options{}) })
	b.Run("off", func(b *testing.B) { benchAblation(b, core.Options{DisableVGReuse: true}) })
}

func BenchmarkAblationSolver(b *testing.B) {
	b.Run("quadratic", func(b *testing.B) { benchAblation(b, core.Options{}) })
	b.Run("bisection", func(b *testing.B) { benchAblation(b, core.Options{UseBisectionSolver: true}) })
}

// BenchmarkPublicAPI_CONN measures a single CONN query end to end through
// the public API on a mid-size database.
func BenchmarkPublicAPI_CONN(b *testing.B) {
	w := workload("CL", 1)
	db, err := Open(w.Points, w.Obstacles, WithAnswerCache(0)) // measure the execution path, not cache hits
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	queries := make([]Segment, 64)
	for i := range queries {
		queries[i] = dataset.QuerySegment(rng, 0.045, w.Obstacles)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(ctx, db, CONNRequest{Seg: queries[i%len(queries)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCONNBatch measures the parallel batch API at several worker
// counts over a fixed query set; near-linear scaling to 4 workers is the
// target on the Table 2 default workload.
func BenchmarkCONNBatch(b *testing.B) {
	w := workload("CL", 1)
	db, err := Open(w.Points, w.Obstacles, WithAnswerCache(0)) // measure the execution path, not cache hits
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	queries := make([]Segment, 32)
	for i := range queries {
		queries[i] = dataset.QuerySegment(rng, 0.045, w.Obstacles)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(ctx, CONNBatchRequest{Segs: queries}, WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDefaultCellQueryAllocBudget is the allocation guardrail for the query
// hot path: a warm default-cell CONN query must stay within budget. The
// steady state with the flat-geometry kernel is ~850 allocations (down from
// ~1.4k pre-kernel); the budget leaves slack for workload drift while still
// catching a regression to either earlier profile.
func TestDefaultCellQueryAllocBudget(t *testing.T) {
	const budget = 1000
	w := workload("CL", 1)
	db, err := Open(w.Points, w.Obstacles, WithAnswerCache(0)) // measure the execution path, not cache hits
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	queries := make([]Segment, 8)
	for i := range queries {
		queries[i] = dataset.QuerySegment(rng, 0.045, w.Obstacles)
	}
	ctx := context.Background()
	for _, q := range queries { // warm the engine's pooled query state
		if _, _, err := Run(ctx, db, CONNRequest{Seg: q}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(20, func() {
		db.Exec(ctx, CONNRequest{Seg: queries[i%len(queries)]})
		i++
	})
	t.Logf("warm default-cell CONN query: %.0f allocs (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("warm default-cell CONN query: %.0f allocs, budget %d", avg, budget)
	}
}

// BenchmarkObstructedDist measures pairwise obstructed-distance computation
// via incremental obstacle retrieval.
func BenchmarkObstructedDist(b *testing.B) {
	w := workload("CL", 1)
	db, err := Open(w.Points, w.Obstacles, WithAnswerCache(0)) // measure the execution path, not cache hits
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]geom.Point, 64)
	for i := range pairs {
		pairs[i] = [2]geom.Point{
			geom.Pt(rng.Float64()*dataset.Side, rng.Float64()*dataset.Side),
			geom.Pt(rng.Float64()*dataset.Side, rng.Float64()*dataset.Side),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		runDist(db, p[0], p[1])
	}
}

// BenchmarkMutateUnderLoad measures the MVCC write path — one op is one
// mutation (rotating insert-point / insert-obstacle / delete-point /
// delete-obstacle), i.e. one copy-on-write R*-tree path copy plus an atomic
// version publication — while two background readers continuously answer
// CONN queries on live snapshots.
func BenchmarkMutateUnderLoad(b *testing.B) {
	w := workload("CL", 1)
	db, err := Open(w.Points, w.Obstacles)
	if err != nil {
		b.Fatal(err)
	}
	rq := rand.New(rand.NewSource(41))
	queries := make([]geom.Segment, 8)
	for i := range queries {
		queries[i] = dataset.QuerySegment(rq, 0.045, w.Obstacles)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := Run(context.Background(), db, CONNRequest{Seg: queries[i%len(queries)]}); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}

	side := dataset.Side
	mr := rand.New(rand.NewSource(42))
	nextPID := int32(len(w.Points))
	nextOID := int32(len(w.Obstacles))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 4 {
		case 0:
			if _, err := db.InsertPoint(Pt(mr.Float64()*side, mr.Float64()*side)); err == nil {
				nextPID++
			}
		case 1:
			lo := Pt(mr.Float64()*side*0.95, mr.Float64()*side*0.95)
			if _, err := db.InsertObstacle(R(lo.X, lo.Y, lo.X+5+mr.Float64()*40, lo.Y+4+mr.Float64()*25)); err == nil {
				nextOID++
			}
		case 2:
			db.DeletePoint(int32(mr.Intn(int(nextPID))))
		case 3:
			db.DeleteObstacle(int32(mr.Intn(int(nextOID))))
		}
	}
	b.StopTimer()
	close(stop)
	readers.Wait()
}
