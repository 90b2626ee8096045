// Command connbench regenerates the paper's evaluation figures (Gao &
// Zheng, SIGMOD 2009, §5) as printed tables, and re-measures the Table 2
// default cell's machine-independent metrics against their pinned records.
// It is not the repo's performance benchmark: wall-clock questions go to
// benchmark/ (see benchmark/README.md).
//
// Usage:
//
//	connbench [-fig all|9|10|11|12|13|ablations] [-scale 0.1] [-queries 100] [-seed 2009]
//	connbench -json <dir> [-workers 1] [-shards 1] [-metrics-baseline BENCH_table2_defaults.json]
//
// -scale 1 reproduces the paper's full dataset cardinalities (|CA| = 60,344
// points, |LA| = 131,461 obstacles); the default 0.1 runs the whole suite in
// minutes while preserving every curve's shape.
//
// -json runs the Table 2 default cell (CL, k = 5, ql = 4.5%) through the
// public request API — one op is one COkNNRequest answered by DB.Exec on a
// prebuilt database — and writes BENCH_table2_defaults.json (ns/op,
// bytes/op, allocs/op, NPE, NOE, |SVG|) into the given directory instead of
// printing figures. -workers fans each query's inner sight-line batches
// across that many lanes via WithWorkers (0 = GOMAXPROCS) and -shards
// answers the stream through a sharded router (the record is then
// BENCH_shard.json); both are execution strategies only, so the answer and
// its NPE/NOE/|SVG| are bit-identical. With -metrics-baseline the run fails
// (exit 1) unless NPE/NOE/|SVG| equal the pinned record's exactly — the CI
// gate. The record's ns/op is informational: it is never compared across
// runs or machines.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"connquery"
	"connquery/internal/bench"
	"connquery/internal/geom"
	"connquery/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: all, 9, 10, 11, 12, 13, ablations")
	scale := flag.Float64("scale", 0.1, "dataset cardinality scale (1 = the paper's sizes)")
	queries := flag.Int("queries", 100, "queries per experiment cell")
	seed := flag.Int64("seed", 2009, "workload seed")
	jsonDir := flag.String("json", "", "measure the Table 2 default cell via the public Exec API and write BENCH_*.json into this directory instead of printing figures")
	workers := flag.Int("workers", 1, "with -json: fan each query's inner work across this many lanes via WithWorkers (1 = sequential, 0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1, "with -json: answer the measured stream through a spatially sharded database with this many shard units (writes BENCH_shard.json; answers are bit-identical to single-node)")
	metricsBaseline := flag.String("metrics-baseline", "", "with -json: require NPE/NOE/|SVG| to match this pinned BENCH_*.json record exactly (there is no ns/op gate: wall-clock time is not comparable across runs, machines or backends)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file when the run finishes")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "connbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "connbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// The profile is written on the way out, after any measurement or
		// figure sweep, so it reflects the whole run's allocation profile.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "connbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "connbench:", err)
				os.Exit(1)
			}
		}()
	}

	cfg := bench.Config{Scale: *scale, Queries: *queries, Seed: *seed}
	out := os.Stdout

	if *jsonDir != "" {
		res := measureTable2Exec(cfg, *workers, *shards)
		path, err := bench.WriteJSON(*jsonDir, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "connbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "%s: %.2f ms/op, %.0f allocs/op, NPE %.1f, NOE %.1f, |SVG| %.1f\n",
			path, res.NsPerOp/1e6, res.AllocsPerOp, res.NPE, res.NOE, res.SVG)
		if *metricsBaseline != "" {
			if err := gateMetrics(out, res, *metricsBaseline); err != nil {
				fmt.Fprintln(os.Stderr, "connbench:", err)
				os.Exit(1)
			}
		}
		return
	}

	runners := map[string]func(){
		"9":         func() { bench.Fig9(out, cfg) },
		"10":        func() { bench.Fig10(out, cfg) },
		"11":        func() { bench.Fig11(out, cfg) },
		"12":        func() { bench.Fig12(out, cfg) },
		"13":        func() { bench.Fig13(out, cfg) },
		"ablations": func() { bench.Ablations(out, cfg) },
	}
	order := []string{"9", "10", "11", "12", "13", "ablations"}

	start := time.Now()
	switch strings.ToLower(*fig) {
	case "all":
		for _, k := range order {
			runners[k]()
		}
	default:
		r, ok := runners[strings.TrimPrefix(strings.ToLower(*fig), "fig")]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want all, 9, 10, 11, 12, 13 or ablations)\n", *fig)
			os.Exit(2)
		}
		r()
	}
	fmt.Fprintf(out, "completed in %v\n", time.Since(start).Round(time.Millisecond))
}

// measureTable2Exec measures the Table 2 default cell end to end through
// the public request API, with DB.Exec answering one COkNNRequest per op.
// workers plumbs WithWorkers onto every measured request: 1 omits the option
// (the default sequential path), anything else fans the intra-query
// sight-line batches across that many lanes (0 = GOMAXPROCS). shards > 1
// answers the same stream through a spatially sharded router (the record is
// named "shard" so it never overwrites the single-node one). Lanes and
// shards are execution strategies: the answer is bit-identical, so
// NPE/NOE/|SVG| must match the single-node pinned record exactly — that is
// the -metrics-baseline gate.
func measureTable2Exec(cfg bench.Config, workers, shards int) bench.BenchResult {
	ctx := context.Background()
	tool := "connbench -json (one op = one COkNNRequest via DB.Exec on the flat-geometry kernel, index build excluded)"
	if workers != 1 {
		tool += fmt.Sprintf("; workers=%d", workers)
	}
	if shards > 1 {
		tool += fmt.Sprintf("; sharded scatter-gather router, shards=%d", shards)
	}
	res := bench.MeasureTable2With(cfg, tool,
		func(w bench.Workload) func(q geom.Segment) stats.QueryMetrics {
			// The answer cache is disabled so every op executes the engine and
			// reports the metrics the record pins.
			var db connquery.Database
			var err error
			if shards > 1 {
				db, err = connquery.OpenSharded(w.Points, w.Obstacles, shards, connquery.WithAnswerCache(0))
			} else {
				db, err = connquery.Open(w.Points, w.Obstacles, connquery.WithAnswerCache(0))
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "connbench:", err)
				os.Exit(1)
			}
			var opts []connquery.QueryOption
			if workers != 1 {
				opts = append(opts, connquery.WithWorkers(workers))
			}
			return func(q geom.Segment) stats.QueryMetrics {
				ans, err := db.Exec(ctx, connquery.COkNNRequest{Seg: q, K: bench.DefaultK}, opts...)
				if err != nil {
					fmt.Fprintln(os.Stderr, "connbench:", err)
					os.Exit(1)
				}
				return ans.Metrics()
			}
		})
	if shards > 1 {
		res.Name = "shard"
	}
	return res
}

// gateMetrics enforces the bit-identity gate: on a matching workload, the
// machine-independent NPE/NOE/|SVG| metrics must equal the pinned record's
// exactly. There is deliberately no ns/op half — wall-clock time is not
// comparable across runs, machines or execution structures — but the
// metrics must be: every execution strategy (Exec path, lanes, shards)
// promises bit-identical answers AND traces.
func gateMetrics(out *os.File, cur bench.BenchResult, path string) error {
	base, err := bench.ReadJSON(path)
	if err != nil {
		return fmt.Errorf("metrics baseline %s: %w", path, err)
	}
	if cur.Scale != base.Scale || cur.Queries != base.Queries || cur.Seed != base.Seed || cur.K != base.K || cur.QL != base.QL {
		return fmt.Errorf("workload parameters do not match the metrics baseline (scale %g vs %g, queries %d vs %d, seed %d vs %d): re-pin the record or align the flags",
			cur.Scale, base.Scale, cur.Queries, base.Queries, cur.Seed, base.Seed)
	}
	const tol = 1e-9
	if math.Abs(cur.NPE-base.NPE) > tol || math.Abs(cur.NOE-base.NOE) > tol || math.Abs(cur.SVG-base.SVG) > tol {
		return fmt.Errorf("workload metrics deviate from %s: NPE %.2f vs %.2f, NOE %.2f vs %.2f, |SVG| %.2f vs %.2f — the trace is not bit-identical",
			path, cur.NPE, base.NPE, cur.NOE, base.NOE, cur.SVG, base.SVG)
	}
	fmt.Fprintf(out, "metrics baseline %s: NPE %.2f, NOE %.2f, |SVG| %.2f — exact match\n",
		path, cur.NPE, cur.NOE, cur.SVG)
	return nil
}
