package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestBuildWorkloadShapes(t *testing.T) {
	for _, name := range []string{"CL", "UL", "ZL"} {
		w := BuildWorkload(name, 0.005, 2, 7)
		if w.Name != name {
			t.Fatalf("name = %q", w.Name)
		}
		if len(w.Obstacles) == 0 || len(w.Points) == 0 {
			t.Fatalf("%s: empty workload", name)
		}
		// UL/ZL respect the ratio (up to interior-point filtering).
		if name != "CL" {
			want := float64(len(w.Obstacles)) * 2
			if f := float64(len(w.Points)); f < want*0.9 || f > want*1.01 {
				t.Fatalf("%s: |P| = %d for |O| = %d at ratio 2", name, len(w.Points), len(w.Obstacles))
			}
		}
	}
}

func TestBuildWorkloadUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload did not panic")
		}
	}()
	BuildWorkload("XX", 0.01, 1, 1)
}

func TestRunProducesMetrics(t *testing.T) {
	w := BuildWorkload("UL", 0.005, 1, 11)
	c := Run(w, RunConfig{QL: 0.02, K: 2, Queries: 3, Seed: 11})
	m := c.Mean
	if m.N != 3 {
		t.Fatalf("N = %d", m.N)
	}
	if m.NPE <= 0 || m.NOE < 0 || m.SVG < 0 || m.CPU <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if m.Faults() <= 0 {
		t.Fatal("no page faults recorded")
	}
	if c.Full != 4*len(w.Obstacles) {
		t.Fatalf("Full = %d, want %d", c.Full, 4*len(w.Obstacles))
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	w := BuildWorkload("UL", 0.005, 1, 13)
	a := Run(w, RunConfig{QL: 0.02, K: 1, Queries: 3, Seed: 5})
	b := Run(w, RunConfig{QL: 0.02, K: 1, Queries: 3, Seed: 5})
	if a.Mean.NPE != b.Mean.NPE || a.Mean.NOE != b.Mean.NOE || a.Mean.SVG != b.Mean.SVG {
		t.Fatalf("same seed, different workload metrics: %+v vs %+v", a.Mean, b.Mean)
	}
}

func TestBufferOnlyAffectsIO(t *testing.T) {
	w := BuildWorkload("UL", 0.005, 1, 17)
	cfg := RunConfig{QL: 0.02, K: 2, Queries: 4, WarmUp: 4, Seed: 17}
	none := Run(w, cfg)
	cfg.BufferFrac = 0.32
	buffered := Run(w, cfg)
	if buffered.Mean.Faults() >= none.Mean.Faults() {
		t.Fatalf("buffer did not cut faults: %v vs %v", buffered.Mean.Faults(), none.Mean.Faults())
	}
	// The paper's Figure 12 observation: NPE/NOE/|SVG| are buffer-invariant.
	if buffered.Mean.NPE != none.Mean.NPE || buffered.Mean.NOE != none.Mean.NOE || buffered.Mean.SVG != none.Mean.SVG {
		t.Fatalf("buffer changed non-I/O metrics: %+v vs %+v", buffered.Mean, none.Mean)
	}
}

func TestOneTreeRunWorks(t *testing.T) {
	w := BuildWorkload("UL", 0.005, 1, 19)
	c := Run(w, RunConfig{QL: 0.02, K: 1, Queries: 2, OneTree: true, Seed: 19})
	if c.Mean.NPE <= 0 {
		t.Fatalf("one-tree run produced no work: %+v", c.Mean)
	}
}

func TestFigureWritersEmitTables(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are slow")
	}
	var buf bytes.Buffer
	cfg := Config{Scale: 0.002, Queries: 2, Seed: 3}
	Fig9(&buf, cfg)
	if !strings.Contains(buf.String(), "Figure 9") || !strings.Contains(buf.String(), "ql") {
		t.Fatalf("Fig9 output malformed:\n%s", buf.String())
	}
	buf.Reset()
	Fig10(&buf, cfg)
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Fatalf("Fig10 output malformed:\n%s", buf.String())
	}
	buf.Reset()
	Ablations(&buf, cfg)
	out := buf.String()
	for _, want := range []string{"full", "-lemma1", "-lemma7", "-quad", "-vgreuse"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Ablations output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckWorkload(t *testing.T) {
	for _, name := range WorkloadNames {
		if err := CheckWorkload(name); err != nil {
			t.Fatalf("CheckWorkload(%q) = %v", name, err)
		}
	}
	if err := CheckWorkload("XX"); err == nil || !strings.Contains(err.Error(), "CL, UL, ZL") {
		t.Fatalf("CheckWorkload(XX) = %v, want an error listing CL, UL, ZL", err)
	}
}
