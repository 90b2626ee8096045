package core

import (
	"math"
	"math/rand"
	"testing"

	"connquery/internal/geom"
	"connquery/internal/visgraph"
)

func TestObstructedRangeMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(607))
	for trial := 0; trial < 25; trial++ {
		sc := randScene(r, 5+r.Intn(20), 1+r.Intn(6), 100)
		e := sc.engine(Options{}, false)
		center := sc.q.At(r.Float64())
		radius := 10 + r.Float64()*40

		got, _ := e.ObstructedRange(center, radius)
		gotSet := map[int32]float64{}
		for _, n := range got {
			gotSet[n.PID] = n.Dist
		}
		for pid, p := range sc.points {
			want := visgraph.BruteObstructedDist(p, center, sc.obstacles)
			_, in := gotSet[int32(pid)]
			// Skip borderline distances within tolerance of the radius.
			if math.Abs(want-radius) < 1e-6*(1+radius) {
				continue
			}
			if (want <= radius) != in {
				t.Fatalf("trial %d pid %d: bruteDist=%v radius=%v in=%v", trial, pid, want, radius, in)
			}
			if in && math.Abs(gotSet[int32(pid)]-want) > 1e-6*(1+want) {
				t.Fatalf("trial %d pid %d: dist %v, oracle %v", trial, pid, gotSet[int32(pid)], want)
			}
		}
		// Sorted ascending.
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist-1e-12 {
				t.Fatalf("trial %d: results not sorted: %+v", trial, got)
			}
		}
	}
}

func TestObstructedRangeEmpty(t *testing.T) {
	sc := scene{points: []geom.Point{geom.Pt(100, 100)}, q: geom.Seg(geom.Pt(0, 0), geom.Pt(1, 0))}
	e := sc.engine(Options{}, false)
	if got, _ := e.ObstructedRange(geom.Pt(0, 0), 5); len(got) != 0 {
		t.Fatalf("expected no results, got %+v", got)
	}
}
