package connquery

import (
	"context"
	"errors"
	"testing"
	"time"

	"connquery/internal/bench"
	"connquery/internal/dataset"
)

// TestExecAnswerMetadata checks the Answer envelope: epoch, request echo,
// payload accessors.
func TestExecAnswerMetadata(t *testing.T) {
	db := smallDB(t)
	req := CONNRequest{Seg: Seg(Pt(0, 0), Pt(100, 0))}
	ans, err := db.Exec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Epoch() != db.Version() {
		t.Fatalf("epoch %d, want %d", ans.Epoch(), db.Version())
	}
	if ans.Request() != Request(req) {
		t.Fatalf("request echo mismatch: %+v", ans.Request())
	}
	if ans.Result() == nil || ans.KResult() != nil || ans.Neighbors() != nil {
		t.Fatalf("payload accessors confused: %+v", ans.Value())
	}
	if _, err := db.Exec(context.Background(), nil); !errors.Is(err, ErrNilRequest) {
		t.Fatalf("nil request: %v", err)
	}
}

// TestExecValidation pins the per-kind validation errors.
func TestExecValidation(t *testing.T) {
	db := smallDB(t)
	ctx := context.Background()
	cases := []Request{
		CONNRequest{Seg: Seg(Pt(1, 1), Pt(1, 1))},
		COkNNRequest{Seg: Seg(Pt(0, 0), Pt(1, 0)), K: 0},
		ONNRequest{P: Pt(0, 0), K: 0},
		RangeRequest{Center: Pt(0, 0), Radius: -1},
		EDistanceJoinRequest{Queries: []Point{Pt(0, 0)}, E: -1},
		TrajectoryRequest{Waypoints: []Point{Pt(0, 0)}},
		CONNBatchRequest{Segs: []Segment{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(2, 2), Pt(2, 2))}},
	}
	for _, req := range cases {
		if _, err := db.Exec(ctx, req); err == nil {
			t.Errorf("%s: invalid request accepted: %+v", req.Kind(), req)
		}
	}
}

// TestSnapshotPinning covers AtSnapshot/AtVersion against live mutations
// and the Release lifecycle.
func TestSnapshotPinning(t *testing.T) {
	db := smallDB(t)
	ctx := context.Background()
	q := Seg(Pt(0, 0), Pt(100, 0))

	snap := db.Snapshot()
	before, _, err := Run(ctx, db, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}

	// Mutate: a new point takes over the middle of q.
	pid, err := db.InsertPoint(Pt(50, 2))
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := Run(ctx, db, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	if mid, _ := after.OwnerAt(0.5); mid.PID != pid {
		t.Fatalf("live answer did not change: %+v", after.Tuples)
	}

	// The pinned snapshot still answers pre-mutation, via both options.
	for _, opt := range []QueryOption{AtSnapshot(snap), AtVersion(snap.Epoch())} {
		res, _, err := Run(ctx, db, CONNRequest{Seg: q}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != len(before.Tuples) {
			t.Fatalf("pinned answer drifted: %d vs %d tuples", len(res.Tuples), len(before.Tuples))
		}
		for i := range res.Tuples {
			if res.Tuples[i] != before.Tuples[i] {
				t.Fatalf("pinned tuple %d: %+v vs %+v", i, res.Tuples[i], before.Tuples[i])
			}
		}
	}

	// AtVersion of the current epoch needs no pin.
	if _, _, err := Run(ctx, db, CONNRequest{Seg: q}, AtVersion(db.Version())); err != nil {
		t.Fatalf("AtVersion(current): %v", err)
	}
	// An unpinned historical epoch fails.
	if _, err := db.Exec(ctx, CONNRequest{Seg: q}, AtVersion(999)); !errors.Is(err, ErrVersionNotPinned) {
		t.Fatalf("unpinned epoch: %v", err)
	}

	// Release: idempotent, and the epoch becomes unreachable.
	ep := snap.Epoch()
	snap.Release()
	snap.Release()
	if !snap.Released() {
		t.Fatal("Released() false after Release")
	}
	if _, err := db.Exec(ctx, CONNRequest{Seg: q}, AtSnapshot(snap)); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("released snapshot: %v", err)
	}
	if _, err := db.Exec(ctx, CONNRequest{Seg: q}, AtVersion(ep)); !errors.Is(err, ErrVersionNotPinned) {
		t.Fatalf("released epoch: %v", err)
	}

	// Two pins on one epoch: the epoch stays alive until the last Release.
	s1, s2 := db.Snapshot(), db.Snapshot()
	if _, err := db.InsertPoint(Pt(1, 99)); err != nil {
		t.Fatal(err)
	}
	s1.Release()
	if _, _, err := Run(ctx, db, CONNRequest{Seg: q}, AtVersion(s2.Epoch())); err != nil {
		t.Fatalf("epoch died with one pin still held: %v", err)
	}
	s2.Release()

	// Foreign snapshots are rejected.
	other := smallDB(t)
	if _, err := other.Exec(ctx, CONNRequest{Seg: q}, AtSnapshot(db.Snapshot())); !errors.Is(err, ErrForeignSnapshot) {
		t.Fatalf("foreign snapshot: %v", err)
	}
}

// TestWithWorkersMatchesSequential: the pooled path of every multi-item
// request must agree exactly with the sequential path.
func TestWithWorkersMatchesSequential(t *testing.T) {
	db, queries := batchFixture(t, 6)
	ctx := context.Background()

	var pts []Point
	for _, q := range queries {
		pts = append(pts, q.A)
	}

	t.Run("EDistanceJoin", func(t *testing.T) {
		seq, _, err := Run(ctx, db, EDistanceJoinRequest{Queries: pts, E: 300})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := Run(ctx, db, EDistanceJoinRequest{Queries: pts, E: 300}, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("pairs: %d vs %d", len(par), len(seq))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("pair %d: %+v vs %+v", i, par[i], seq[i])
			}
		}
	})

	t.Run("DistanceSemiJoin", func(t *testing.T) {
		seq, _, err := Run(ctx, db, DistanceSemiJoinRequest{Queries: pts})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := Run(ctx, db, DistanceSemiJoinRequest{Queries: pts}, WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("pairs: %d vs %d", len(par), len(seq))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("pair %d: %+v vs %+v", i, par[i], seq[i])
			}
		}
	})

	t.Run("Trajectory", func(t *testing.T) {
		way := []Point{Pt(100, 100), Pt(1200, 150), Pt(1300, 900), Pt(400, 800)}
		seq, _, err := Run(ctx, db, TrajectoryRequest{Waypoints: way})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := Run(ctx, db, TrajectoryRequest{Waypoints: way}, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Legs) != len(par.Legs) {
			t.Fatalf("legs: %d vs %d", len(par.Legs), len(seq.Legs))
		}
		for l := range seq.Legs {
			if len(seq.Legs[l].Tuples) != len(par.Legs[l].Tuples) {
				t.Fatalf("leg %d tuples: %d vs %d", l, len(par.Legs[l].Tuples), len(seq.Legs[l].Tuples))
			}
			for i := range seq.Legs[l].Tuples {
				if seq.Legs[l].Tuples[i] != par.Legs[l].Tuples[i] {
					t.Fatalf("leg %d tuple %d differs", l, i)
				}
			}
		}
	})
}

// adversarialDB builds a large workload whose long CONN queries run for
// hundreds of milliseconds — long enough to be cancelled mid-flight.
func adversarialDB(t testing.TB) (*DB, Segment) {
	t.Helper()
	w := bench.BuildWorkload("CL", 0.05, 1, 2009)
	db, err := Open(w.Points, w.Obstacles)
	if err != nil {
		t.Fatal(err)
	}
	// A query spanning a third of the space: the settle loops chew through
	// thousands of graph nodes per evaluated point.
	q := Seg(Pt(dataset.Side*0.3, dataset.Side*0.45), Pt(dataset.Side*0.65, dataset.Side*0.55))
	return db, q
}

// TestExecContextCancellation: cancelling mid-Dijkstra must abort within a
// bounded time and surface exactly ctx.Err(). This is the satellite
// guarantee: a stuck or adversarial query cannot hold a serving goroutine
// hostage.
func TestExecContextCancellation(t *testing.T) {
	db, q := adversarialDB(t)

	// Pre-cancelled context: rejected before any work.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := db.Exec(pre, CONNRequest{Seg: q}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: %v", err)
	}

	// Cancel mid-query, at several depths: the full-algorithm query runs for
	// minutes on this segment, so it reliably outlives every cancel point, and
	// no stretch of it — IOR growth, a bulk obstacle load into the visibility
	// graph, CPLC, Dijkstra — may run long without reaching a cancellation
	// checkpoint.
	type outcome struct {
		err      error
		returned time.Time
	}
	for _, after := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond, 400 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan outcome, 1)
		go func() {
			_, err := db.Exec(ctx, CONNRequest{Seg: q})
			done <- outcome{err: err, returned: time.Now()}
		}()
		time.Sleep(after)
		cancelAt := time.Now()
		cancel()
		select {
		case out := <-done:
			if !errors.Is(out.err, context.Canceled) {
				t.Fatalf("cancel at %v: query returned %v, want context.Canceled", after, out.err)
			}
			if lat := out.returned.Sub(cancelAt); lat > 100*time.Millisecond {
				t.Fatalf("cancel at %v: abort took %v after cancel", after, lat)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("cancel at %v: cancelled query never returned", after)
		}
	}

	// A deadline aborts the same way, with DeadlineExceeded.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer dcancel()
	if _, err := db.Exec(dctx, CONNRequest{Seg: q}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline query returned %v, want context.DeadlineExceeded", err)
	}

	// The handle (and its pooled query state) survives aborts: a fresh
	// (short) query on the same handle completes normally.
	short := Seg(q.A, q.At(0.02))
	res, _, err := Run(context.Background(), db, CONNRequest{Seg: short})
	if err != nil || len(res.Tuples) == 0 {
		t.Fatalf("post-abort query: %v %v", res, err)
	}
}

// TestExecBatchCancellation: the pooled batch path propagates cancellation
// from every worker.
func TestExecBatchCancellation(t *testing.T) {
	db, q := adversarialDB(t)
	segs := []Segment{q, q, q, q}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec(ctx, CONNBatchRequest{Segs: segs}, WithWorkers(2))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch never returned")
	}
}

// TestPinEdgeCases covers the review-hardened corner: AtSnapshot(nil) must
// fail loudly (not silently run live), for Exec and Watch alike.
func TestPinEdgeCases(t *testing.T) {
	db := smallDB(t)
	q := Seg(Pt(0, 0), Pt(100, 0))
	if _, err := db.Exec(context.Background(), CONNRequest{Seg: q}, AtSnapshot(nil)); err == nil {
		t.Fatal("AtSnapshot(nil) silently executed against the live version")
	}
	if _, err := db.Watch(context.Background(), CONNRequest{Seg: q}, AtSnapshot(nil)); !errors.Is(err, ErrPinnedWatch) {
		t.Fatalf("Watch with AtSnapshot(nil): %v", err)
	}
}

// TestItemMetricsMultiItem: every pooled multi-item request exposes
// per-item metrics.
func TestItemMetricsMultiItem(t *testing.T) {
	db, queries := batchFixture(t, 4)
	ctx := context.Background()
	var pts []Point
	for _, q := range queries {
		pts = append(pts, q.A)
	}
	ans, err := db.Exec(ctx, CONNBatchRequest{Segs: queries}, WithWorkers(2))
	if err != nil || len(ans.ItemMetrics()) != len(queries) {
		t.Fatalf("batch items: %d (%v)", len(ans.ItemMetrics()), err)
	}
	ans, err = db.Exec(ctx, TrajectoryRequest{Waypoints: []Point{Pt(0, 0), Pt(100, 0), Pt(100, 100)}}, WithWorkers(2))
	if err != nil || len(ans.ItemMetrics()) != 2 {
		t.Fatalf("trajectory items: %d (%v)", len(ans.ItemMetrics()), err)
	}
	ans, err = db.Exec(ctx, EDistanceJoinRequest{Queries: pts, E: 200}, WithWorkers(2))
	if err != nil || len(ans.ItemMetrics()) != len(pts) {
		t.Fatalf("join items: %d (%v)", len(ans.ItemMetrics()), err)
	}
	ans, err = db.Exec(ctx, DistanceSemiJoinRequest{Queries: pts}, WithWorkers(2))
	if err != nil || len(ans.ItemMetrics()) != len(pts) {
		t.Fatalf("semi-join items: %d (%v)", len(ans.ItemMetrics()), err)
	}
}
