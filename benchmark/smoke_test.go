package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// toySize shrinks a run to a map of ~580 points and ~1 300 obstacles and one
// measured second, so the four workloads together stay well under ten seconds.
func toySize(s spec, seed int64, dir string) runConfig {
	return runConfig{spec: s, seed: seed, seconds: 1, trace: true, scale: 0.01, vehicles: 256, pool: 128,
		boots: 1, restarts: 1, replay: 40, lines: 320, workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out")}
}

// TestSmoke runs every workload at toy size, traced, and checks that every
// metric BENCHMARK.json names comes out with its unit and that nothing failed.
// With -short the server is an in-process listener; otherwise cmd/connserve is
// built and run as a child, kill -9 included.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	for i, s := range specs {
		if bf.Workloads[i].Name != s.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, bf.Workloads[i].Name, s.name)
		}
	}
	serveBin := ""
	if !testing.Short() {
		if serveBin, err = buildServer(root, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			cfg := toySize(s, 2009, t.TempDir())
			cfg.serveBin = serveBin
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Errorf("fail_ratio != 0: %d of %d failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			for _, ms := range bf.EndToEnd {
				if m, ok := rep.e2e[ms.Name]; !ok || m.Unit != ms.Unit || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a positive value in %s", ms.Name, m, ok, ms.Unit)
				}
			}
			for _, ms := range bf.PerLayer {
				if m, ok := rep.layer[ms.Name]; !ok || m.Unit != ms.Unit || m.Value != m.Value {
					t.Errorf("per-layer metric %s: got %+v (present %v), want a value in %s", ms.Name, m, ok, ms.Unit)
				}
			}
			if len(rep.layer) != len(bf.PerLayer) {
				t.Errorf("run emitted %d per-layer metrics, BENCHMARK.json lists %d", len(rep.layer), len(bf.PerLayer))
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace.json")); err != nil {
				t.Errorf("traced run wrote no trace.json: %v", err)
			}
		})
	}
}

// TestInputsFollowSeed checks that the generated request and line files are a
// function of the seed alone.
func TestInputsFollowSeed(t *testing.T) {
	w := newWorld(0.01)
	files := func(s spec, seed int64) []byte {
		dir := t.TempDir()
		cfg := toySize(s, seed, dir)
		in := generate(w, cfg)
		if err := writeInputs(dir, in.requests, in.order, in.writes, in.fleet, cfg.lines); err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, name := range []string{"reads.ndjson", "lines.ndjson"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	for _, s := range specs {
		a, again, other := files(s, 7), files(s, 7), files(s, 8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: the same seed generated different inputs", s.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: different seeds generated the same inputs", s.name)
		}
	}
}
