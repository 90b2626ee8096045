package connquery

// The differential harness behind the answer cache's correctness claim:
// every answer Exec serves — fresh, cached at the same epoch, or promoted
// across mutations by the surgical invalidator — must be bit-identical in
// payload and epoch to a cache-bypassed execution of the same request at
// the same pinned version. The harness drives a randomized workload that
// interleaves all 12 request kinds with point/obstacle insertions and
// deletions, re-issuing earlier requests so entries are hit both at their
// original epoch and after surviving mutations, and checks every single
// answer against WithNoCache ground truth. Metrics (NPE/NOE/|SVG|) are
// deliberately excluded from the comparison for cache hits: a hit replays
// the populating execution's cost profile by contract.
//
// The concurrent phase runs the same invariant with live readers racing a
// writer (plus snapshot-pinned readers), so `go test -race ./...` also
// proves the cache's synchronization.

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// diffWorkload owns the mutable ground-truth bookkeeping of one harness run.
type diffWorkload struct {
	rng      *rand.Rand
	db       *DB
	hot      *hotBox // non-nil confines coordinate draws (planner storms)
	alivePts []int32
	aliveObs []int32
	history  []Request // previously issued requests, re-issued to force hits
}

const diffSide = 100.0 // coordinate range of the harness's world

// hotBox confines a workload's coordinate draws to a sub-square and scales
// the segment/radius draws to match: the planner storms concentrate their
// requests so quantized group keys collide.
type hotBox struct{ lo, side float64 }

// scale is the draw-size multiplier relative to the default world side.
func (w *diffWorkload) scale() float64 {
	if w.hot == nil {
		return 1
	}
	return w.hot.side / diffSide
}

func (w *diffWorkload) pt() Point {
	if w.hot != nil {
		return Pt(w.hot.lo+w.rng.Float64()*w.hot.side, w.hot.lo+w.rng.Float64()*w.hot.side)
	}
	return Pt(w.rng.Float64()*diffSide, w.rng.Float64()*diffSide)
}

func (w *diffWorkload) seg() Segment {
	a := w.pt()
	d := (2 + w.rng.Float64()*18) * w.scale()
	ang := w.rng.Float64() * 2 * math.Pi
	return Seg(a, Pt(a.X+d*math.Cos(ang), a.Y+d*math.Sin(ang)))
}

func (w *diffWorkload) pts(min, max int) []Point {
	n := min + w.rng.Intn(max-min+1)
	out := make([]Point, n)
	for i := range out {
		out[i] = w.pt()
	}
	return out
}

// newRequest draws one request across all 12 kinds.
func (w *diffWorkload) newRequest() Request {
	switch w.rng.Intn(12) {
	case 0:
		return CONNRequest{Seg: w.seg()}
	case 1:
		return COkNNRequest{Seg: w.seg(), K: 1 + w.rng.Intn(3)}
	case 2:
		return ONNRequest{P: w.pt(), K: 1 + w.rng.Intn(3)}
	case 3:
		return CNNRequest{Seg: w.seg()}
	case 4:
		return RangeRequest{Center: w.pt(), Radius: w.rng.Float64() * 25 * w.scale()}
	case 5:
		return VisibleKNNRequest{P: w.pt(), K: 1 + w.rng.Intn(3)}
	case 6:
		return DistanceRequest{A: w.pt(), B: w.pt()}
	case 7:
		wp := w.pts(2, 4)
		return TrajectoryRequest{Waypoints: wp}
	case 8:
		segs := make([]Segment, 1+w.rng.Intn(3))
		for i := range segs {
			segs[i] = w.seg()
		}
		return CONNBatchRequest{Segs: segs}
	case 9:
		return EDistanceJoinRequest{Queries: w.pts(1, 3), E: w.rng.Float64() * 20 * w.scale()}
	case 10:
		return DistanceSemiJoinRequest{Queries: w.pts(1, 3)}
	default:
		return ClosestPairRequest{Queries: w.pts(0, 3)}
	}
}

// request picks the next request, re-issuing a historical one 45% of the
// time so entries are exercised at their original epoch and after
// promotions.
func (w *diffWorkload) request() Request {
	if len(w.history) > 0 && w.rng.Float64() < 0.45 {
		return w.history[w.rng.Intn(len(w.history))]
	}
	req := w.newRequest()
	if len(w.history) < 128 {
		w.history = append(w.history, req)
	} else {
		w.history[w.rng.Intn(len(w.history))] = req
	}
	return req
}

// mutate applies one random mutation, keeping the alive-ID books.
func (w *diffWorkload) mutate(t *testing.T) {
	t.Helper()
	switch w.rng.Intn(4) {
	case 0:
		if pid, err := w.db.InsertPoint(w.pt()); err == nil {
			w.alivePts = append(w.alivePts, pid)
		}
	case 1:
		lo := w.pt()
		r := R(lo.X, lo.Y, lo.X+0.5+w.rng.Float64()*6, lo.Y+0.5+w.rng.Float64()*6)
		if oid, err := w.db.InsertObstacle(r); err == nil {
			w.aliveObs = append(w.aliveObs, oid)
		}
	case 2:
		if len(w.alivePts) > 1 { // keep at least one point alive
			i := w.rng.Intn(len(w.alivePts))
			if !w.db.DeletePoint(w.alivePts[i]) {
				t.Errorf("delete of alive point %d failed", w.alivePts[i])
				return
			}
			w.alivePts = append(w.alivePts[:i], w.alivePts[i+1:]...)
		}
	default:
		if len(w.aliveObs) > 0 {
			i := w.rng.Intn(len(w.aliveObs))
			if !w.db.DeleteObstacle(w.aliveObs[i]) {
				t.Errorf("delete of alive obstacle %d failed", w.aliveObs[i])
				return
			}
			w.aliveObs = append(w.aliveObs[:i], w.aliveObs[i+1:]...)
		}
	}
}

// newDiffWorkload seeds the world with a few points and obstacles.
func newDiffWorkload(t *testing.T, seed int64) *diffWorkload {
	t.Helper()
	w := &diffWorkload{rng: rand.New(rand.NewSource(seed))}
	points := make([]Point, 16)
	for i := range points {
		points[i] = w.pt()
	}
	var obstacles []Rect
	for len(obstacles) < 8 {
		lo := w.pt()
		r := R(lo.X, lo.Y, lo.X+0.5+w.rng.Float64()*6, lo.Y+0.5+w.rng.Float64()*6)
		keep := true
		for _, p := range points {
			if r.ContainsOpen(p) {
				keep = false
				break
			}
		}
		if keep {
			obstacles = append(obstacles, r)
		}
	}
	db, err := Open(points, obstacles, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	w.db = db
	for i := range points {
		w.alivePts = append(w.alivePts, int32(i))
	}
	for i := range obstacles {
		w.aliveObs = append(w.aliveObs, int32(i))
	}
	return w
}

// checkAnswer proves ans (possibly cached/promoted) bit-identical to a
// cache-bypassed execution of req at the same pinned version.
func checkAnswer(t *testing.T, db *DB, req Request, ans *Answer, opts ...QueryOption) {
	t.Helper()
	want, err := db.Exec(context.Background(), req, append(opts, WithNoCache())...)
	if err != nil {
		t.Errorf("%s: uncached re-execution failed: %v", req.Kind(), err)
		return
	}
	if ans.Epoch() != want.Epoch() {
		t.Errorf("%s: epoch %d != uncached %d", req.Kind(), ans.Epoch(), want.Epoch())
		return
	}
	if !answersEqual(ans.Value(), want.Value()) {
		t.Errorf("%s (cached=%v, epoch %d): payload differs from uncached execution\n cached: %#v\n fresh:  %#v",
			req.Kind(), ans.Cached(), ans.Epoch(), ans.Value(), want.Value())
	}
}

// TestDifferentialCacheConsistency is the sequential harness: ≥10k randomized
// operations interleaving every request kind with mutations, every answer
// differentially checked against WithNoCache at the same version.
func TestDifferentialCacheConsistency(t *testing.T) {
	const ops = 10000
	w := newDiffWorkload(t, 1)
	ctx := context.Background()

	var snap *Snapshot
	for i := 0; i < ops; i++ {
		roll := w.rng.Float64()
		switch {
		case roll < 0.15:
			w.mutate(t)
		case roll < 0.17:
			// Rotate an explicit pin so promoted entries are also checked at
			// old epochs.
			if snap != nil {
				snap.Release()
			}
			snap = w.db.Snapshot()
		case roll < 0.22 && snap != nil && !snap.Released():
			req := w.request()
			ans, err := w.db.Exec(ctx, req, AtSnapshot(snap))
			if err != nil {
				continue // validation errors are fine; both paths agree below
			}
			checkAnswer(t, w.db, req, ans, AtSnapshot(snap))
		default:
			req := w.request()
			ans, err := w.db.Exec(ctx, req)
			if err != nil {
				// Validation failures must fail identically without caching.
				if _, err2 := w.db.Exec(ctx, req, WithNoCache()); err2 == nil {
					t.Fatalf("%s: cached path errored (%v), uncached succeeded", req.Kind(), err)
				}
				continue
			}
			checkAnswer(t, w.db, req, ans, AtVersion(ans.Epoch()))
		}
	}
	st := w.db.CacheStats()
	t.Logf("cache stats after %d ops: %+v", ops, st)
	if st.Hits == 0 || st.PromotedHits == 0 || st.Promotions == 0 || st.Invalidations == 0 {
		t.Fatalf("harness failed to exercise the cache: %+v", st)
	}
}

// TestDifferentialCacheConsistencyConcurrent runs the same invariant with
// live readers racing the writer: each reader pins the answer's epoch via a
// snapshot taken around the exec, so the uncached ground truth runs against
// exactly the version the (possibly promoted) answer claims.
func TestDifferentialCacheConsistencyConcurrent(t *testing.T) {
	w := newDiffWorkload(t, 2)
	ctx := context.Background()

	const readers = 4
	const readerOps = 250
	const writerOps = 150

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		wr := &diffWorkload{rng: rand.New(rand.NewSource(99)), db: w.db,
			alivePts: append([]int32(nil), w.alivePts...),
			aliveObs: append([]int32(nil), w.aliveObs...)}
		for i := 0; i < writerOps; i++ {
			wr.mutate(t)
			// Spread the mutations across the readers' lifetime so entries
			// get promoted (and served promoted) while reads are in flight.
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd := &diffWorkload{rng: rand.New(rand.NewSource(1000 + int64(g))), db: w.db}
			for i := 0; i < readerOps; i++ {
				req := rd.request()
				// Pin the current version so the differential check can rerun
				// at the exact epoch even if the writer advances meanwhile.
				snap := w.db.Snapshot()
				ans, err := w.db.Exec(ctx, req, AtSnapshot(snap))
				if err != nil {
					snap.Release()
					continue
				}
				if ans.Epoch() != snap.Epoch() {
					t.Errorf("%s: answered epoch %d, pinned %d", req.Kind(), ans.Epoch(), snap.Epoch())
				}
				checkAnswer(t, w.db, req, ans, AtSnapshot(snap))
				snap.Release()
			}
		}(g)
	}
	wg.Wait()
	t.Logf("concurrent cache stats: %+v", w.db.CacheStats())
}
