package connquery

import (
	"context"
	"math"
	"testing"
)

// cacheTestDB builds a small database with the answer cache enabled: a
// cluster of points around (10..30, 10) with one obstacle between them and
// everything else, far from the "remote" corner used for unrelated
// mutations.
func cacheTestDB(t *testing.T) *DB {
	t.Helper()
	points := []Point{Pt(10, 10), Pt(20, 10), Pt(30, 10), Pt(18, 30)}
	obstacles := []Rect{R(14, 14, 16, 18)}
	db, err := Open(points, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecCacheHit(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	req := CONNRequest{Seg: Seg(Pt(12, 12), Pt(28, 12))}

	first, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached() {
		t.Fatal("first execution must miss")
	}
	second, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached() {
		t.Fatal("repeat execution must hit the cache")
	}
	if second.Value() != first.Value() {
		t.Fatal("hit must return the stored payload")
	}
	if second.Epoch() != first.Epoch() {
		t.Fatalf("hit epoch %d != %d", second.Epoch(), first.Epoch())
	}
	if second.Metrics() != first.Metrics() {
		t.Fatal("hit must replay the original metrics")
	}
	st := db.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWithNoCacheBypasses(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	req := CONNRequest{Seg: Seg(Pt(12, 12), Pt(28, 12))}
	for i := 0; i < 2; i++ {
		ans, err := db.Exec(ctx, req, WithNoCache())
		if err != nil {
			t.Fatal(err)
		}
		if ans.Cached() {
			t.Fatal("WithNoCache must never hit")
		}
	}
	if st := db.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("WithNoCache must not touch the cache: %+v", st)
	}
}

func TestCacheDisabledByOption(t *testing.T) {
	db, err := Open([]Point{Pt(1, 1), Pt(2, 2)}, nil, WithAnswerCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := ONNRequest{P: Pt(0, 0), K: 1}
	for i := 0; i < 2; i++ {
		ans, err := db.Exec(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Cached() {
			t.Fatal("disabled cache must never hit")
		}
	}
	if st := db.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache stats = %+v", st)
	}
}

func TestMutationPromotesUnaffectedEntries(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	req := CONNRequest{Seg: Seg(Pt(12, 12), Pt(28, 12))}
	first, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// A far-away insertion cannot affect the answer: the entry is promoted.
	if _, err := db.InsertPoint(Pt(900, 900)); err != nil {
		t.Fatal(err)
	}
	promoted, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !promoted.Cached() {
		t.Fatal("entry must survive an unrelated mutation")
	}
	if promoted.Epoch() != first.Epoch()+1 {
		t.Fatalf("promoted answer must carry the new epoch: %d vs %d", promoted.Epoch(), first.Epoch())
	}
	if promoted.Value() != first.Value() {
		t.Fatal("promoted answer must be the stored payload")
	}
	st := db.CacheStats()
	if st.Promotions == 0 || st.PromotedHits == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The promoted entry also still serves a pin of the original epoch.
	pinned, err := db.Exec(ctx, req, AtVersion(first.Epoch()))
	if err == nil { // the old epoch must be pinned to be queryable
		t.Fatalf("AtVersion on an unpinned old epoch must fail, got %v", pinned)
	}
}

func TestMutationInvalidatesAffectedEntries(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	req := CONNRequest{Seg: Seg(Pt(12, 12), Pt(28, 12))}
	if _, err := db.Exec(ctx, req); err != nil {
		t.Fatal(err)
	}
	// A point dropped right on the segment takes over part of the answer.
	if _, err := db.InsertPoint(Pt(22, 12.5)); err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached() {
		t.Fatal("an intersecting mutation must invalidate the entry")
	}
	want, err := db.Exec(ctx, req, WithNoCache())
	if err != nil {
		t.Fatal(err)
	}
	if !answersEqual(fresh.Value(), want.Value()) {
		t.Fatal("post-invalidation answer differs from uncached execution")
	}
	if st := db.CacheStats(); st.Invalidations == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPromotedEntryServesPinnedSnapshot(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	req := COkNNRequest{Seg: Seg(Pt(12, 12), Pt(28, 12)), K: 2}
	snap := db.Snapshot()
	defer snap.Release()
	first, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertPoint(Pt(900, 900)); err != nil {
		t.Fatal(err)
	}
	// The promoted entry's validity range covers both the pinned old epoch
	// and the current one.
	old, err := db.Exec(ctx, req, AtSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !old.Cached() || old.Epoch() != first.Epoch() {
		t.Fatalf("pinned query: cached=%v epoch=%d", old.Cached(), old.Epoch())
	}
	cur, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Cached() || cur.Epoch() != first.Epoch()+1 {
		t.Fatalf("live query: cached=%v epoch=%d", cur.Cached(), cur.Epoch())
	}
}

func TestCNNEntrySurvivesObstacleMutations(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	req := CNNRequest{Seg: Seg(Pt(12, 12), Pt(28, 12))}
	if _, err := db.Exec(ctx, req); err != nil {
		t.Fatal(err)
	}
	// CNN ignores obstacles entirely: even an obstacle dropped right on the
	// query segment leaves the entry valid.
	if _, err := db.InsertObstacle(R(18, 11, 19, 13)); err != nil {
		t.Fatal(err)
	}
	ans, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Cached() {
		t.Fatal("CNN entry must survive obstacle mutations")
	}
	// A point mutation inside the region does invalidate it.
	if _, err := db.InsertPoint(Pt(20, 12)); err != nil {
		t.Fatal(err)
	}
	if ans, err = db.Exec(ctx, req); err != nil || ans.Cached() {
		t.Fatalf("CNN entry must be invalidated by a nearby point: cached=%v err=%v", ans.Cached(), err)
	}
}

func TestDistanceEntrySurvivesPointMutations(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	req := DistanceRequest{A: Pt(10, 12), B: Pt(20, 12)}
	first, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Data points never enter an obstructed-distance computation.
	if _, err := db.InsertPoint(Pt(12, 12)); err != nil {
		t.Fatal(err)
	}
	ans, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Cached() {
		t.Fatal("distance entry must survive point mutations")
	}
	// The symmetric request shares the canonical fingerprint.
	sym, err := db.Exec(ctx, DistanceRequest{A: Pt(20, 12), B: Pt(10, 12)})
	if err != nil {
		t.Fatal(err)
	}
	if !sym.Cached() || sym.Distance() != first.Distance() {
		t.Fatalf("swapped endpoints must hit the same entry: cached=%v", sym.Cached())
	}
	// An obstacle across the straight line invalidates.
	if _, err := db.InsertObstacle(R(14, 11.5, 16, 12.5)); err != nil {
		t.Fatal(err)
	}
	ans, err = db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Cached() {
		t.Fatal("distance entry must be invalidated by a blocking obstacle")
	}
	if ans.Distance() <= first.Distance() {
		t.Fatalf("detour must be longer: %v vs %v", ans.Distance(), first.Distance())
	}
}

func TestWorkersKeepSeparateEntries(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	seg := Seg(Pt(12, 12), Pt(28, 12))

	batch := CONNBatchRequest{Segs: []Segment{seg}}
	if _, err := db.Exec(ctx, batch); err != nil {
		t.Fatal(err)
	}
	pooled, err := db.Exec(ctx, batch, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Cached() {
		t.Fatal("a pooled call must not hit the unpooled entry")
	}
	again, err := db.Exec(ctx, batch, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached() || len(again.ItemMetrics()) != 1 {
		t.Fatalf("pooled repeat: cached=%v items=%d", again.Cached(), len(again.ItemMetrics()))
	}
}

func TestCloneStartsWithEmptyCache(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	req := CONNRequest{Seg: Seg(Pt(12, 12), Pt(28, 12))}
	if _, err := db.Exec(ctx, req); err != nil {
		t.Fatal(err)
	}
	clone := db.Clone()
	ans, err := clone.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Cached() {
		t.Fatal("a clone must not inherit the parent's entries")
	}
	if st := clone.CacheStats(); st.Entries != 1 {
		t.Fatalf("the clone caches independently: %+v", st)
	}
}

func TestUnreachableAnswerUsesBlanketRegion(t *testing.T) {
	// One point sealed inside a box of obstacles: the ONN answer at k=1 from
	// outside is empty, so the impact region must be unbounded — any far
	// mutation invalidates instead of promoting a possibly-stale answer.
	// The bars overlap at the corners: a path cannot slide through a seam
	// between merely touching rectangles.
	points := []Point{Pt(50, 50)}
	obstacles := []Rect{
		R(38, 38, 62, 45), R(38, 55, 62, 62), // bottom and top bars
		R(38, 38, 45, 62), R(55, 38, 62, 62), // left and right bars
	}
	db, err := Open(points, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := ONNRequest{P: Pt(5, 5), K: 1}
	ans, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Neighbors()) != 0 {
		t.Skip("point unexpectedly reachable; dataset assumption broken")
	}
	if _, err := db.InsertPoint(Pt(900, 900)); err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached() {
		t.Fatal("an empty k-NN answer must not be promoted across any mutation")
	}
	if len(fresh.Neighbors()) != 1 || math.IsInf(fresh.Neighbors()[0].Dist, 1) {
		t.Fatalf("fresh answer must see the new point: %+v", fresh.Neighbors())
	}
}
