package core

import (
	"math"
	"math/rand"
	"testing"

	"connquery/internal/geom"
	"connquery/internal/visgraph"
)

func randQueryPoints(r *rand.Rand, sc scene, n int) []geom.Point {
	var out []geom.Point
	for len(out) < n {
		p := geom.Pt(r.Float64()*100, r.Float64()*100)
		free := true
		for _, o := range sc.obstacles {
			if o.ContainsOpen(p) {
				free = false
				break
			}
		}
		if free {
			out = append(out, p)
		}
	}
	return out
}

func TestClosestPairMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(703))
	for trial := 0; trial < 15; trial++ {
		sc := randScene(r, 5+r.Intn(12), 1+r.Intn(5), 100)
		e := sc.engine(Options{}, false)
		queries := randQueryPoints(r, sc, 5)

		best, _ := e.ClosestPair(queries)
		want := math.Inf(1)
		for _, qp := range queries {
			for _, p := range sc.points {
				if d := visgraph.BruteObstructedDist(p, qp, sc.obstacles); d < want {
					want = d
				}
			}
		}
		if math.Abs(best.Dist-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d: closest pair dist %v, oracle %v", trial, best.Dist, want)
		}
		// The reported pair's own distance must match its claim.
		direct := visgraph.BruteObstructedDist(best.P, queries[best.QIdx], sc.obstacles)
		if math.Abs(direct-best.Dist) > 1e-6*(1+direct) {
			t.Fatalf("trial %d: reported pair distance %v, recomputed %v", trial, best.Dist, direct)
		}
	}
}

func TestVisibleKNNMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(709))
	for trial := 0; trial < 20; trial++ {
		sc := randScene(r, 5+r.Intn(15), 1+r.Intn(6), 100)
		e := sc.engine(Options{}, false)
		qp := randQueryPoints(r, sc, 1)[0]
		k := 1 + r.Intn(3)

		got, _ := e.VisibleKNN(qp, k)
		// Oracle: Euclidean distances of visible points, sorted.
		type pd struct {
			pid int
			d   float64
		}
		var vis []pd
		for pid, p := range sc.points {
			if geom.Visible(qp, p, sc.obstacles) {
				vis = append(vis, pd{pid, geom.Dist(qp, p)})
			}
		}
		wantN := k
		if len(vis) < k {
			wantN = len(vis)
		}
		if len(got) != wantN {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), wantN)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatalf("trial %d: unsorted results", trial)
			}
		}
		for _, n := range got {
			if !geom.Visible(qp, n.P, sc.obstacles) {
				t.Fatalf("trial %d: invisible point %d in VkNN answer", trial, n.PID)
			}
		}
		// Distance of the k-th result matches the oracle's k-th visible.
		if len(got) > 0 {
			ds := make([]float64, len(vis))
			for i, v := range vis {
				ds[i] = v.d
			}
			sortFloats(ds)
			for i := range got {
				if math.Abs(got[i].Dist-ds[i]) > 1e-9 {
					t.Fatalf("trial %d rank %d: %v vs oracle %v", trial, i, got[i].Dist, ds[i])
				}
			}
		}
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func TestClosestPairNoQueries(t *testing.T) {
	sc := scene{points: []geom.Point{geom.Pt(1, 1)}, q: geom.Seg(geom.Pt(0, 0), geom.Pt(1, 0))}
	e := sc.engine(Options{}, false)
	best, _ := e.ClosestPair(nil)
	if best.QIdx != -1 || !math.IsInf(best.Dist, 1) {
		t.Fatalf("empty query set: %+v", best)
	}
}
