package core_test

// The multi-item kinds — trajectory CONN (the paper's §6 extension), the
// CONN batch and the obstructed joins of Zhang et al. — are folds of one
// engine primitive over a list of items, run by the root package's item
// runner. These tests drive the public requests on scenes drawn by the
// engine's own generator and check them against per-item engine queries
// and the brute-force obstructed distance, on the inline path (one worker)
// and on the worker pool.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"connquery"
	"connquery/internal/core"
	"connquery/internal/geom"
	"connquery/internal/visgraph"
)

// paths are the option sets every test runs under: the inline item loop
// and the worker pool.
var paths = map[string][]connquery.QueryOption{
	"inline": {connquery.WithWorkers(1)},
	"pooled": {connquery.WithWorkers(3)},
}

func open(t *testing.T, points []geom.Point, obstacles []geom.Rect) *connquery.DB {
	t.Helper()
	db, err := connquery.Open(points, obstacles, connquery.WithAnswerCache(0))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func run[A any](t *testing.T, db *connquery.DB, req connquery.TypedRequest[A], opts ...connquery.QueryOption) (A, connquery.Metrics) {
	t.Helper()
	a, m, err := connquery.Run(context.Background(), db, req, opts...)
	if err != nil {
		t.Fatalf("%s: %v", req.Kind(), err)
	}
	return a, m
}

// TestEngineCONNBatchMatchesSequential checks CONNBatchRequest at several
// worker counts against one CONNRequest per segment: same tuples, and one
// item metric per segment with the same NPE/NOE/|SVG|.
func TestEngineCONNBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	points, obstacles, _ := core.RandScene(r, 60, 25, 1000)
	queries := make([]geom.Segment, 10)
	for i := range queries {
		_, _, queries[i] = core.RandScene(r, 1, 0, 1000) // reuse the generator's segment logic
	}
	db := open(t, points, obstacles)
	want := make([]*connquery.Result, len(queries))
	wantM := make([]connquery.Metrics, len(queries))
	for i, q := range queries {
		want[i], wantM[i] = run(t, db, connquery.CONNRequest{Seg: q})
	}
	for _, workers := range []int{0, 1, 3} {
		ans, err := db.Exec(context.Background(), connquery.CONNBatchRequest{Segs: queries}, connquery.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, ms := ans.Results(), ans.ItemMetrics()
		if len(res) != len(queries) || len(ms) != len(queries) {
			t.Fatalf("workers=%d: %d results, %d metrics", workers, len(res), len(ms))
		}
		for i := range queries {
			if len(res[i].Tuples) != len(want[i].Tuples) {
				t.Fatalf("workers=%d query %d: %d tuples, want %d", workers, i, len(res[i].Tuples), len(want[i].Tuples))
			}
			for j := range res[i].Tuples {
				if res[i].Tuples[j].PID != want[i].Tuples[j].PID || res[i].Tuples[j].Span != want[i].Tuples[j].Span {
					t.Fatalf("workers=%d query %d tuple %d differs", workers, i, j)
				}
			}
			if ms[i].NPE != wantM[i].NPE || ms[i].NOE != wantM[i].NOE || ms[i].SVG != wantM[i].SVG {
				t.Fatalf("workers=%d query %d: item metrics %+v, single CONN %+v", workers, i, ms[i], wantM[i])
			}
		}
	}
}

// TestEDistanceJoinMatchesBrute checks every (query, point) pair of the
// e-distance join against the brute-force obstructed distance.
func TestEDistanceJoinMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(701))
	for trial := 0; trial < 12; trial++ {
		points, obstacles, _ := core.RandScene(r, 5+r.Intn(12), 1+r.Intn(5), 100)
		db := open(t, points, obstacles)
		queries := core.RandQueryPoints(r, obstacles, 4)
		radius := 15 + r.Float64()*25
		for name, opts := range paths {
			pairs, _ := run(t, db, connquery.EDistanceJoinRequest{Queries: queries, E: radius}, opts...)
			got := map[[2]int32]float64{}
			for _, pr := range pairs {
				got[[2]int32{int32(pr.QIdx), pr.PID}] = pr.Dist
			}
			for qi, qp := range queries {
				for pid, p := range points {
					want := visgraph.BruteObstructedDist(p, qp, obstacles)
					if math.Abs(want-radius) < 1e-6*(1+radius) {
						continue // borderline
					}
					_, in := got[[2]int32{int32(qi), int32(pid)}]
					if (want <= radius) != in {
						t.Fatalf("%s trial %d (q%d, p%d): dist=%v radius=%v in=%v", name, trial, qi, pid, want, radius, in)
					}
				}
			}
		}
	}
}

// TestDistanceSemiJoinMatchesONN checks the semi-join against one ONN
// (k = 1) per query point: one pair per query point, sorted by distance.
func TestDistanceSemiJoinMatchesONN(t *testing.T) {
	r := rand.New(rand.NewSource(707))
	points, obstacles, _ := core.RandScene(r, 15, 5, 100)
	db := open(t, points, obstacles)
	queries := core.RandQueryPoints(r, obstacles, 6)
	for name, opts := range paths {
		pairs, _ := run(t, db, connquery.DistanceSemiJoinRequest{Queries: queries}, opts...)
		if len(pairs) != len(queries) {
			t.Fatalf("%s: pairs = %d, want %d", name, len(pairs), len(queries))
		}
		seen := map[int]bool{}
		for i, pr := range pairs {
			if i > 0 && pr.Dist < pairs[i-1].Dist-1e-12 {
				t.Fatalf("%s: not sorted: %+v", name, pairs)
			}
			if seen[pr.QIdx] {
				t.Fatalf("%s: duplicate query index %d", name, pr.QIdx)
			}
			seen[pr.QIdx] = true
			nbrs, _ := run(t, db, connquery.ONNRequest{P: queries[pr.QIdx], K: 1})
			if len(nbrs) == 0 || math.Abs(nbrs[0].Dist-pr.Dist) > 1e-9 {
				t.Fatalf("%s: semi-join pair %d disagrees with ONN: %v vs %v", name, pr.QIdx, pr.Dist, nbrs)
			}
		}
	}
}

// TestTrajectoryCONNMatchesPerLegCONN checks that each trajectory leg is
// the single-segment CONN answer and that metrics accumulate across legs.
func TestTrajectoryCONNMatchesPerLegCONN(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	points, obstacles, q := core.RandScene(r, 15, 5, 100)
	db := open(t, points, obstacles)

	// A two-leg trajectory: the scene's clear segment, then a tiny hop.
	w1, w2 := q.A, q.B
	w3 := geom.Pt(w2.X, w2.Y+0.01)
	direct, _ := run(t, db, connquery.CONNRequest{Seg: geom.Seg(w1, w2)})
	for name, opts := range paths {
		tr, m := run(t, db, connquery.TrajectoryRequest{Waypoints: []geom.Point{w1, w2, w3}}, opts...)
		if len(tr.Legs) != 2 {
			t.Fatalf("%s: legs = %d, want 2", name, len(tr.Legs))
		}
		if len(tr.Legs[0].Tuples) != len(direct.Tuples) {
			t.Fatalf("%s: leg 0 tuples %d vs direct %d", name, len(tr.Legs[0].Tuples), len(direct.Tuples))
		}
		for i := range direct.Tuples {
			if tr.Legs[0].Tuples[i].PID != direct.Tuples[i].PID {
				t.Fatalf("%s: leg 0 tuple %d owner %d vs %d", name, i, tr.Legs[0].Tuples[i].PID, direct.Tuples[i].PID)
			}
		}
		if m.NPE == 0 {
			t.Fatalf("%s: metrics not accumulated", name)
		}
	}
}

func TestTrajectoryDegenerateLegsSkipped(t *testing.T) {
	db := open(t, []geom.Point{geom.Pt(5, 5)}, nil)
	for name, opts := range paths {
		tr, _ := run(t, db, connquery.TrajectoryRequest{Waypoints: []geom.Point{
			geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(10, 0),
		}}, opts...)
		if len(tr.Legs) != 1 {
			t.Fatalf("%s: legs = %d, want 1 (degenerate skipped)", name, len(tr.Legs))
		}
		if tu, ok := tr.OwnerAt(0.5); !ok || tu.PID != 0 {
			t.Fatalf("%s: OwnerAt(0.5) = %+v %v", name, tu, ok)
		}
	}
}

func TestTrajectoryOwnerAtSpansLegs(t *testing.T) {
	// Two equal-length legs with different nearest points.
	db := open(t, []geom.Point{geom.Pt(2, 2), geom.Pt(18, 2)}, nil)
	for name, opts := range paths {
		tr, _ := run(t, db, connquery.TrajectoryRequest{Waypoints: []geom.Point{
			geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0),
		}}, opts...)
		if len(tr.Legs) != 2 {
			t.Fatalf("%s: legs = %d", name, len(tr.Legs))
		}
		first, _ := tr.OwnerAt(0.1)
		last, _ := tr.OwnerAt(0.9)
		if first.PID != 0 || last.PID != 1 {
			t.Fatalf("%s: owners across legs: %d, %d", name, first.PID, last.PID)
		}
	}
	if _, ok := (&core.TrajectoryResult{}).OwnerAt(0.5); ok {
		t.Fatal("empty trajectory produced an owner")
	}
}
