package connquery

// Validity-horizon tests: the motion-table math, the horizonHolds gate, the
// ValidUntil stamp on executed answers, and the end-to-end Watch behavior —
// a horizon-holding wake skips re-execution (HorizonSkips counts it, nothing
// is delivered) and a single unbounded commit re-arms the subscription.

import (
	"context"
	"math"
	"testing"
	"time"

	"connquery/internal/anscache"
)

func TestRectDist(t *testing.T) {
	r := R(10, 0, 20, 10)
	cases := []struct {
		p Point
		d float64
	}{
		{Pt(15, 5), 0},  // inside
		{Pt(10, 0), 0},  // corner, boundary counts as distance zero
		{Pt(0, 5), 10},  // straight left
		{Pt(25, 5), 5},  // straight right
		{Pt(15, 14), 4}, // straight above
		{Pt(7, -4), 5},  // 3-4-5 corner
		{Pt(23, 14), 5}, // opposite 3-4-5 corner
	}
	for _, c := range cases {
		if got := rectDist(c.p, r); math.Abs(got-c.d) > 1e-12 {
			t.Errorf("rectDist(%v, %v) = %v, want %v", c.p, r, got, c.d)
		}
	}
	if got := rectDist(Pt(3, 3), anscache.InfiniteRect()); got != 0 {
		t.Errorf("rectDist to the infinite rect = %v, want 0", got)
	}
}

func TestMotionHorizonMath(t *testing.T) {
	mt := &motionTable{}
	rg := anscache.Region{Rect: R(10, 0, 20, 10), Points: true}
	if h := mt.horizon(rg, 1); !h.IsZero() {
		t.Fatalf("empty table produced horizon %v", h)
	}
	base := time.Now()

	// One tracked object 10 units left of the rect at 2 u/s: first touch at
	// base+5s, anchored at the declaration time, not at stamping time.
	mt.applyAt([]motionUpdate{{pid: 1, entry: motionEntry{pos: Pt(0, 5), speed: 2, at: base}}}, 1)
	want := base.Add(5 * time.Second)
	if h := mt.horizon(rg, 1); !h.Equal(want) {
		t.Fatalf("single-entry horizon %v, want %v", h, want)
	}

	// The nearest-in-time object bounds the answer: 2 units away at 4 u/s
	// touches first.
	mt.applyAt([]motionUpdate{{pid: 2, entry: motionEntry{pos: Pt(8, 5), speed: 4, at: base}}}, 1)
	want = base.Add(500 * time.Millisecond)
	if h := mt.horizon(rg, 1); !h.Equal(want) {
		t.Fatalf("min-entry horizon %v, want %v", h, want)
	}

	// An object already inside the rect voids the horizon entirely.
	mt.applyAt([]motionUpdate{{pid: 3, entry: motionEntry{pos: Pt(15, 5), speed: 1, at: base}}}, 1)
	if h := mt.horizon(rg, 1); !h.IsZero() {
		t.Fatalf("inside-the-rect entry left horizon %v", h)
	}
	mt.applyAt([]motionUpdate{{pid: 3, forget: true}}, 1)
	if h := mt.horizon(rg, 1); !h.Equal(want) {
		t.Fatalf("horizon after forget %v, want %v", h, want)
	}

	// A non-positive declared speed is an unbounded object: no horizon.
	mt.applyAt([]motionUpdate{{pid: 4, entry: motionEntry{pos: Pt(0, 50), speed: 0, at: base}}}, 1)
	if h := mt.horizon(rg, 1); !h.IsZero() {
		t.Fatalf("zero-speed entry left horizon %v", h)
	}
	mt.applyAt([]motionUpdate{{pid: 4, forget: true}}, 1)

	// Point motion cannot affect a point-insensitive region.
	if h := mt.horizon(anscache.Region{Rect: R(10, 0, 20, 10), Obstacles: true}, 1); !h.IsZero() {
		t.Fatalf("point-insensitive region got horizon %v", h)
	}

	// Crawling speeds clamp at maxHorizon instead of overflowing.
	mt2 := &motionTable{}
	mt2.applyAt([]motionUpdate{{pid: 1, entry: motionEntry{pos: Pt(0, 5), speed: 1e-300, at: base}}}, 1)
	if h := mt2.horizon(rg, 1); !h.Equal(base.Add(maxHorizon)) {
		t.Fatalf("near-zero speed horizon %v, want the %v clamp", h, maxHorizon)
	}
}

// TestMotionRegistryEpochGate pins the stamp-consistency rule: commit-path
// edits (applyAt) re-key the registry at the committing epoch, and
// horizon refuses to stamp any answer older than that key — the table could
// hide that an object sat inside the answer's region before the rewrite.
func TestMotionRegistryEpochGate(t *testing.T) {
	rg := anscache.Region{Rect: R(10, 0, 20, 10), Points: true}
	base := time.Now()
	want := base.Add(5 * time.Second)

	mt := &motionTable{}
	mt.applyAt([]motionUpdate{{pid: 1, entry: motionEntry{pos: Pt(0, 5), speed: 2, at: base}}}, 7)
	if h := mt.horizon(rg, 6); !h.IsZero() {
		t.Fatalf("epoch-6 answer stamped %v from a registry rewritten at epoch 7", h)
	}
	if h := mt.horizon(rg, 7); !h.Equal(want) {
		t.Fatalf("epoch-7 answer horizon %v, want %v", h, want)
	}
	// The memo replays, never goes stale: a second stamp of the same region
	// hits it, and the next rewrite drops it.
	if h := mt.horizon(rg, 9); !h.Equal(want) {
		t.Fatalf("memoized horizon %v, want %v", h, want)
	}
	mt.applyAt([]motionUpdate{{pid: 2, entry: motionEntry{pos: Pt(6, 5), speed: 8, at: base}}}, 8)
	if h := mt.horizon(rg, 7); !h.IsZero() {
		t.Fatalf("epoch-7 answer stamped %v after an epoch-8 rewrite", h)
	}
	if h := mt.horizon(rg, 8); !h.Equal(base.Add(500 * time.Millisecond)) {
		t.Fatalf("post-rewrite horizon %v, want %v", h, base.Add(500*time.Millisecond))
	}
	// A tick that only forgets re-keys too.
	mt.applyAt([]motionUpdate{{pid: 2, forget: true}}, 9)
	if h := mt.horizon(rg, 8); !h.IsZero() {
		t.Fatalf("epoch-8 answer stamped %v after an epoch-9 deletion", h)
	}
	if h := mt.horizon(rg, 9); !h.Equal(want) {
		t.Fatalf("post-deletion horizon %v, want %v", h, want)
	}
	// Forgetting an untracked object neither edits nor re-keys.
	mt.applyAt([]motionUpdate{{pid: 42, forget: true}}, 11)
	if h := mt.horizon(rg, 9); !h.Equal(want) {
		t.Fatalf("no-op forget re-keyed the registry: %v", h)
	}
}

// TestHorizonHoldsGate pins the three-way guard: a horizon must exist, no
// unbounded commit may have published since the answer's epoch, and the wall
// clock must not have reached it.
func TestHorizonHoldsGate(t *testing.T) {
	db, err := Open([]Point{Pt(1, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := &Answer{epoch: 5, validUntil: time.Now().Add(time.Hour)}
	db.lastUnbounded.Store(5)
	if !db.horizonHolds(prev) {
		t.Fatal("horizon with a live bound and no later unbounded commit must hold")
	}
	db.lastUnbounded.Store(6)
	if db.horizonHolds(prev) {
		t.Fatal("an unbounded commit after the answer's epoch must void the horizon")
	}
	db.lastUnbounded.Store(3)
	prev.validUntil = time.Now().Add(-time.Second)
	if db.horizonHolds(prev) {
		t.Fatal("an elapsed horizon must not hold")
	}
	prev.validUntil = time.Time{}
	if db.horizonHolds(prev) {
		t.Fatal("the zero time means no horizon")
	}
}

// TestAnswerValidUntil pins the stamp on executed answers: zero with no
// tracked objects, a future instant once a speed-declared object exists far
// from the query, and always zero on the sharded tier (which tracks no
// motion).
func TestAnswerValidUntil(t *testing.T) {
	pts := []Point{Pt(10, 10), Pt(11, 10), Pt(10, 11), Pt(11, 11)}
	req := CONNRequest{Seg: Seg(Pt(10, 10), Pt(11, 11))}
	ctx := context.Background()

	db, err := Open(pts, nil, WithAnswerCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !a.ValidUntil().IsZero() {
		t.Fatalf("answer with no tracked motion carries horizon %v", a.ValidUntil())
	}
	if _, err := db.Apply([]Mutation{{Op: MutInsertPoint, P: Pt(95, 95), Speed: 5}}); err != nil {
		t.Fatal(err)
	}
	a, err = db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.ValidUntil().IsZero() || !a.ValidUntil().After(time.Now()) {
		t.Fatalf("far slow tracked object stamped horizon %v", a.ValidUntil())
	}
	if a.ValidUntil().After(time.Now().Add(maxHorizon + time.Hour)) {
		t.Fatalf("horizon %v exceeds the clamp", a.ValidUntil())
	}

	// The cache-hit path stamps a fresh horizon per call too.
	b, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if b.ValidUntil().IsZero() {
		t.Fatal("cache-hit answer lost its horizon")
	}

	sdb, err := OpenSharded(pts, nil, 4, WithAnswerCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Apply([]Mutation{{Op: MutInsertPoint, P: Pt(95, 95), Speed: 5}}); err != nil {
		t.Fatal(err)
	}
	sa, err := sdb.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.ValidUntil().IsZero() {
		t.Fatalf("sharded answer carries horizon %v", sa.ValidUntil())
	}
}

// TestWatchHorizonSkip drives the end-to-end skip: a watcher blocked mid-
// delivery while a compliant motion-bounded tick commits wakes into the
// region-shift liveness re-check, sees the epoch advanced but the horizon
// holding, counts a HorizonSkip, and delivers nothing — until a plain
// (unbounded) commit instantly re-arms it.
func TestWatchHorizonSkip(t *testing.T) {
	pts := []Point{Pt(10, 10), Pt(11, 10), Pt(10, 11), Pt(11, 11)}
	db, err := Open(pts, nil, WithAnswerCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Apply([]Mutation{{Op: MutInsertPoint, P: Pt(95, 95), Speed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	farPID := res.Results[0].ID

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := db.Watch(ctx, CONNRequest{Seg: Seg(Pt(10, 10), Pt(11, 11))})
	if err != nil {
		t.Fatal(err)
	}
	u1 := <-ch
	if u1.Err != nil {
		t.Fatal(u1.Err)
	}
	if u1.Answer.ValidUntil().IsZero() || !u1.Answer.ValidUntil().After(time.Now()) {
		t.Fatalf("watched answer with a far tracked object stamped horizon %v", u1.Answer.ValidUntil())
	}

	// Each round: an in-region insert wakes the watcher, which re-executes
	// and blocks on the unbuffered delivery send; a compliant move of the far
	// object then commits a motion-bounded tick behind its back. Receiving
	// the delivery releases the watcher into the liveness re-check, where the
	// held horizon must short-circuit the re-execution. The timing window is
	// generous but scheduling-dependent, hence the retry rounds.
	skipped := false
	for round := 0; round < 10 && !skipped; round++ {
		before := db.WatchStats().HorizonSkips
		if _, err := db.InsertPoint(Pt(10.2+0.05*float64(round), 10.4)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		mv, err := db.Apply([]Mutation{{Op: MutMovePoint, ID: farPID, P: Pt(95+0.01*float64(round+1), 95)}})
		if err != nil {
			t.Fatal(err)
		}
		if r := mv.Results[0]; r.Err != nil || !r.Deleted {
			t.Fatalf("round %d: compliant move failed: %+v", round, r)
		} else {
			farPID = r.ID
		}
		select {
		case u := <-ch:
			if u.Err != nil {
				t.Fatal(u.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no delivery for the in-region insert")
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if db.WatchStats().HorizonSkips > before {
				skipped = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !skipped {
		t.Fatal("watcher never skipped re-execution on a horizon-holding wake")
	}

	// The skipped wake is unobservable as a delivery.
	select {
	case u := <-ch:
		t.Fatalf("unexpected delivery at epoch %d after a motion-bounded tick", u.Epoch)
	case <-time.After(50 * time.Millisecond):
	}

	// A plain commit is unbounded: the horizon voids and the watcher delivers
	// at the live epoch.
	if _, err := db.InsertPoint(Pt(10.5, 10.6)); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-ch:
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if u.Epoch != db.Version() {
			t.Fatalf("re-armed delivery at epoch %d, live version is %d", u.Epoch, db.Version())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery after an unbounded commit")
	}
}

// TestHorizonStampRegistrySkew is the regression test for the horizon-
// stamping race: stampHorizon runs outside db.mu, so a motion tick can
// commit between an answer's snapshot and its stamp, and reading the
// post-tick registry would certify a horizon for an answer the tick may
// already have changed. The race window is reproduced deterministically by
// pinning the pre-tick epoch: executing at the pin after the tick stamps
// from a registry newer than the answer, which must yield no horizon, while
// a live execution at the tick's own epoch keeps its horizon.
func TestHorizonStampRegistrySkew(t *testing.T) {
	pts := []Point{Pt(10, 10), Pt(11, 10), Pt(10, 11), Pt(11, 11)}
	db, err := Open(pts, nil, WithAnswerCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	req := CONNRequest{Seg: Seg(Pt(10, 10), Pt(11, 11))}
	ctx := context.Background()

	res, err := db.Apply([]Mutation{{Op: MutInsertPoint, P: Pt(95, 95), Speed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	pid := res.Results[0].ID
	snap := db.Snapshot()
	defer snap.Release()

	// A compliant move commits a motion-bounded tick that rewrites the
	// registry (the sleep keeps the 0.01-unit displacement within the 5 u/s
	// declaration, as in TestWatchHorizonSkip).
	time.Sleep(50 * time.Millisecond)
	mv, err := db.Apply([]Mutation{{Op: MutMovePoint, ID: pid, P: Pt(95.01, 95)}})
	if err != nil {
		t.Fatal(err)
	}
	if r := mv.Results[0]; r.Err != nil || !r.Deleted {
		t.Fatalf("compliant move failed: %+v", r)
	}

	a, err := db.Exec(ctx, req, AtSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !a.ValidUntil().IsZero() {
		t.Fatalf("answer at pre-tick epoch %d stamped horizon %v from the post-tick registry",
			snap.Epoch(), a.ValidUntil())
	}

	b, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if b.ValidUntil().IsZero() || !b.ValidUntil().After(time.Now()) {
		t.Fatalf("live answer at the tick's epoch lost its horizon: %v", b.ValidUntil())
	}
}
