package core

import (
	"math/rand"
	"reflect"
	"testing"

	"connquery/internal/flatgeom"
)

// kernelEngine is the scene's two-tree engine with the flat-geometry kernel
// attached, the configuration the public DB always runs.
func kernelEngine(sc scene, opts Options) *Engine {
	e := sc.engine(opts, false)
	e.Kernel = flatgeom.NewKernel(sc.obstacles)
	return e
}

// The intra-query parallel path (Options.Workers > 1) must be bit-identical
// to the sequential path: same payload (DeepEqual over the float spans and
// distances is exact equality) and same NPE/NOE/|SVG| metrics. Scenes are
// drawn at two sizes — small sets and large ones past 150 obstacles — and
// both run the parallel corner link and the occlusion index.
func TestParallelCONNBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	for trial := 0; trial < 25; trial++ {
		nObs := 5 + r.Intn(40)
		if trial%3 == 0 {
			nObs = 155 + r.Intn(60) // large set
		}
		sc := randScene(r, 3+r.Intn(6), nObs, 100)
		seqRes, seqM := kernelEngine(sc, Options{}).CONN(sc.q)
		parRes, parM := kernelEngine(sc, Options{Workers: 4}).CONN(sc.q)
		if !reflect.DeepEqual(seqRes, parRes) {
			t.Fatalf("trial %d (%d obstacles): parallel result diverged\nseq: %+v\npar: %+v",
				trial, nObs, seqRes, parRes)
		}
		if seqM.NPE != parM.NPE || seqM.NOE != parM.NOE || seqM.SVG != parM.SVG {
			t.Fatalf("trial %d: metrics diverged: seq NPE=%d NOE=%d SVG=%d, par NPE=%d NOE=%d SVG=%d",
				trial, seqM.NPE, seqM.NOE, seqM.SVG, parM.NPE, parM.NOE, parM.SVG)
		}
	}
}

// Same contract for COkNN, whose CPLC consumes multi-owner candidate sets.
func TestParallelCOkNNBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(607))
	for trial := 0; trial < 15; trial++ {
		nObs := 5 + r.Intn(40)
		if trial%3 == 0 {
			nObs = 155 + r.Intn(40)
		}
		sc := randScene(r, 4+r.Intn(8), nObs, 100)
		k := 1 + r.Intn(3)
		seqRes, seqM := kernelEngine(sc, Options{}).COkNN(sc.q, k)
		parRes, parM := kernelEngine(sc, Options{Workers: 3}).COkNN(sc.q, k)
		if !reflect.DeepEqual(seqRes, parRes) {
			t.Fatalf("trial %d (k=%d, %d obstacles): parallel result diverged", trial, k, nObs)
		}
		if seqM.NPE != parM.NPE || seqM.NOE != parM.NOE || seqM.SVG != parM.SVG {
			t.Fatalf("trial %d: metrics diverged", trial)
		}
	}
}

// The parallel path must honor the ablation switches too (they change which
// candidates CPLC consumes, stressing the lookahead's live-bound re-check).
func TestParallelAblationsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(613))
	for _, opts := range []Options{
		{DisableLemma6: true},
		{DisableLemma7: true},
		{DisableVGReuse: true},
	} {
		sc := randScene(r, 5, 25, 100)
		par := opts
		par.Workers = 4
		seqRes, _ := kernelEngine(sc, opts).CONN(sc.q)
		parRes, _ := kernelEngine(sc, par).CONN(sc.q)
		if !reflect.DeepEqual(seqRes, parRes) {
			t.Fatalf("opts %+v: parallel result diverged", opts)
		}
	}
}
