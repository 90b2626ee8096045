// Command benchmark is the repository's one benchmark: it builds
// cmd/connserve, boots it as a child process on 127.0.0.1:0, drives it over
// real HTTP with traffic generated from -seed, checks the answers against an
// in-process twin, and prints every metric by name with its unit. README.md
// in this directory explains the workloads and the metrics; BENCHMARK.json at
// the repository root fixes their direction and regression bounds.
//
//	go run -C benchmark . -workload all
//	go run -C benchmark . -workload fleet_motion -seed 7 -trace 1
//	go run -C benchmark . -check-repeat
//	bash benchmark/run.sh --workload route_cold --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run: route_cold, commuter_hot, fleet_motion, district_sharded or all")
	seed := flag.Int64("seed", 2009, "traffic seed: the same seed gives the same requests, lines and fleet")
	secs := flag.Float64("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and <out>/trace.json instead of the end-to-end metrics")
	out := flag.String("out", "", "directory for generated inputs and trace.json (default .bench_build/out/<workload>)")
	repeat := flag.Bool("check-repeat", false, "A/A mode: run every workload twice on the same binary and compare within the bounds")
	flag.Parse()
	if err := run(*workload, *seed, *secs, *trace == 1, *out, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs float64, trace bool, out string, repeat bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if secs == 0 {
		secs = float64(bf.RunSeconds)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		return err
	}
	serveBin, err := buildServer(root, filepath.Join(build, "bin"))
	if err != nil {
		return err
	}
	runOne := func(s spec, trace bool) (*report, error) {
		cfg := fullSize(s, seed, secs)
		cfg.trace, cfg.serveBin = trace, serveBin
		cfg.workDir = filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
		if cfg.outDir = out; out == "" {
			cfg.outDir = filepath.Join(build, "out", s.name)
		}
		return runWorkload(cfg)
	}
	if repeat {
		return checkRepeat(bf, runOne)
	}
	todo := specs
	if workload != "all" {
		s, ok := specByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		todo = []spec{s}
	}
	ok := true
	for _, s := range todo {
		rep, err := runOne(s, trace)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		printReport(os.Stdout, rep, bf, trace)
		ok = ok && rep.correct()
	}
	if !ok && workload == "all" {
		return errors.New("some workload failed an operation or ran invalid")
	}
	return nil
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "connserve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout with BENCHMARK.json and cmd/connserve above the working directory")
		}
		dir = parent
	}
}

// printReport prints the run for people, then, as the last line, the one
// JSON object the driver reads: the end-to-end metrics of BENCHMARK.json, or
// its per-layer metrics when traced.
func printReport(w *os.File, rep *report, bf benchmarkFile, trace bool) {
	fmt.Fprintf(w, "== %s\n", rep.workload)
	names := make([]string, 0, len(rep.e2e))
	for name := range rep.e2e {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.e2e[name]
		fmt.Fprintf(w, "%-22s %12.4f %-4s%s\n", name, m.Value, m.Unit, sampleNote(rep, name))
	}
	ratio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(w, "%-22s %12.6f ratio  (%d failed of %d attempted)\n", "fail_ratio", ratio, rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, f := range rep.invalid {
		fmt.Fprintf(w, "  INVALID RUN: %s\n", f)
	}
	for _, p99 := range [][2]string{{"query_p99_ms", "query"}, {"server.stream.ack_p99_ms", "mutation_ack"}, {"connquery.watch.lag_p99_ms", "watch_lag"}} {
		if n := rep.samples[p99[1]]; n < 1000 {
			fmt.Fprintf(w, "  NOTE: %s rests on %d samples; a p99 needs 1000\n", p99[0], n)
		}
	}
	// Per-layer metrics: the few the wire run itself yields, or, traced, all.
	names = names[:0]
	for name := range rep.layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", name, rep.layer[name].Value, rep.layer[name].Unit)
	}
	listed, from := bf.EndToEnd, rep.e2e
	if trace {
		listed, from = bf.PerLayer, rep.layer
	}
	metrics := map[string]metric{}
	for _, ms := range listed {
		m, ok := from[ms.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(w, "  MISSING: %s\n", ms.Name)
			rep.invalid = append(rep.invalid, "metric "+ms.Name+" was not measured")
			continue
		}
		metrics[ms.Name] = m
	}
	// correct speaks for the program's outputs; an INVALID RUN is the
	// harness's own verdict on itself and is for whoever reads the report.
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, max(rep.attempted, 1), rep.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func sampleNote(rep *report, name string) string {
	for prefix, n := range rep.samples {
		if strings.HasPrefix(name, prefix) {
			return fmt.Sprintf("  (%d samples)", n)
		}
	}
	return ""
}

// exactLayer lists the per-layer counts that must repeat to the digit between
// two runs of one binary on one seed.
var exactLayer = []string{"core.npe", "core.noe", "core.svg", "rtree.node_accesses", "connquery.shard.epochs_per_tick", "wal.bytes_per_record"}

// checkRepeat runs every workload twice, the second round in reverse order,
// and prints both values and the relative gap of every end-to-end metric. A
// gap beyond the metric's bound is reported as unresolved — the benchmark
// cannot tell a change of that size from noise — and fails the check, as does
// any exact per-layer count that differs between two traced runs.
func checkRepeat(bf benchmarkFile, runOne func(spec, bool) (*report, error)) error {
	type pair [2]*report
	e2e, traced := map[string]*pair{}, map[string]*pair{}
	order := append([]spec(nil), specs...)
	for round := 0; round < 2; round++ {
		for _, s := range order {
			for _, tr := range []bool{false, true} {
				rep, err := runOne(s, tr)
				if err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
				if !rep.correct() {
					return fmt.Errorf("%s: run incorrect: %v %v", s.name, rep.failures, rep.invalid)
				}
				into := e2e
				if tr {
					into = traced
				}
				if into[s.name] == nil {
					into[s.name] = &pair{}
				}
				into[s.name][round] = rep
			}
		}
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	bad := 0
	for _, s := range specs {
		fmt.Printf("== %s\n", s.name)
		for _, ms := range bf.EndToEnd {
			a, b := e2e[s.name][0].e2e[ms.Name].Value, e2e[s.name][1].e2e[ms.Name].Value
			gap := math.Abs(a-b) / math.Min(a, b)
			verdict := "agree"
			if gap > ms.Bound {
				verdict = "UNRESOLVED"
				bad++
			}
			fmt.Printf("%-22s %12.4f %12.4f %-4s gap %5.1f%% bound %4.0f%%  %s\n", ms.Name, a, b, ms.Unit, 100*gap, 100*ms.Bound, verdict)
		}
		for _, name := range exactLayer {
			a, b := traced[s.name][0].layer[name].Value, traced[s.name][1].layer[name].Value
			verdict := "exact"
			if a != b {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-40s %14.4f %14.4f  %s\n", name, a, b, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics did not repeat", bad)
	}
	return nil
}
