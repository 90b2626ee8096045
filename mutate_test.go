package connquery

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
)

func TestInsertPointChangesAnswers(t *testing.T) {
	db := smallDB(t)
	q := Seg(Pt(0, 0), Pt(100, 0))
	before, _, _ := Run(context.Background(), db, CONNRequest{Seg: q})

	pid, err := db.InsertPoint(Pt(50, 2))
	if err != nil {
		t.Fatalf("InsertPoint: %v", err)
	}
	after, _, _ := Run(context.Background(), db, CONNRequest{Seg: q})
	mid, _ := after.OwnerAt(0.5)
	if mid.PID != pid {
		t.Fatalf("new point does not own the middle: %+v", after.Tuples)
	}
	if len(after.Tuples) <= len(before.Tuples) {
		t.Fatalf("answer unchanged after insert: %d vs %d tuples", len(after.Tuples), len(before.Tuples))
	}
	if db.NumPoints() != 5 {
		t.Fatalf("NumPoints = %d", db.NumPoints())
	}
}

func TestDeletePointRemovesFromAnswers(t *testing.T) {
	db := smallDB(t)
	q := Seg(Pt(0, 0), Pt(100, 0))
	if !db.DeletePoint(0) {
		t.Fatal("DeletePoint(0) failed")
	}
	if db.DeletePoint(0) {
		t.Fatal("double delete succeeded")
	}
	if db.DeletePoint(99) {
		t.Fatal("deleting unknown PID succeeded")
	}
	res, _, _ := Run(context.Background(), db, CONNRequest{Seg: q})
	for _, tup := range res.Tuples {
		if tup.PID == 0 {
			t.Fatalf("deleted point still in answer: %+v", res.Tuples)
		}
	}
	if _, ok := db.PointByID(0); ok {
		t.Fatal("PointByID returned a deleted point")
	}
	if db.NumPoints() != 3 {
		t.Fatalf("NumPoints = %d", db.NumPoints())
	}
}

func TestInsertPointValidation(t *testing.T) {
	db := smallDB(t)
	if _, err := db.InsertPoint(Pt(50, 30)); err == nil {
		t.Fatal("point inside obstacle accepted")
	}
	if _, err := db.InsertPoint(Pt(math.NaN(), 0)); err == nil {
		t.Fatal("NaN point accepted")
	}
	// Boundary is fine.
	if _, err := db.InsertPoint(Pt(40, 30)); err != nil {
		t.Fatalf("boundary point rejected: %v", err)
	}
}

func TestInsertObstacleChangesDistances(t *testing.T) {
	db := smallDB(t)
	a, b := Pt(20, 60), Pt(80, 60)
	before := runDist(db, a, b)
	oid, err := db.InsertObstacle(R(45, 50, 55, 70))
	if err != nil {
		t.Fatalf("InsertObstacle: %v", err)
	}
	after := runDist(db, a, b)
	if after <= before {
		t.Fatalf("new wall did not lengthen the path: %v vs %v", after, before)
	}
	if !db.DeleteObstacle(oid) {
		t.Fatal("DeleteObstacle failed")
	}
	if db.DeleteObstacle(oid) {
		t.Fatal("double obstacle delete succeeded")
	}
	restored := runDist(db, a, b)
	if math.Abs(restored-before) > 1e-9 {
		t.Fatalf("distance not restored after delete: %v vs %v", restored, before)
	}
}

func TestInsertObstacleValidation(t *testing.T) {
	db := smallDB(t)
	// Would swallow point 1 at (50,50).
	if _, err := db.InsertObstacle(R(45, 45, 55, 55)); err == nil {
		t.Fatal("obstacle swallowing a point accepted")
	}
	if _, err := db.InsertObstacle(Rect{MinX: 5, MinY: 5, MaxX: 1, MaxY: 1}); err == nil {
		t.Fatal("inverted obstacle accepted")
	}
	if db.NumObstacles() != 1 {
		t.Fatalf("NumObstacles = %d after rejected inserts", db.NumObstacles())
	}
}

func TestOpenRejectsNonFinite(t *testing.T) {
	if _, err := Open([]Point{Pt(math.Inf(1), 0)}, nil); err == nil {
		t.Fatal("infinite coordinate accepted")
	}
	if _, err := Open([]Point{Pt(0, 0)}, []Rect{{MinX: math.NaN(), MaxX: 1, MaxY: 1}}); err == nil {
		t.Fatal("NaN obstacle accepted")
	}
}

func TestSaveSkipsDeleted(t *testing.T) {
	db := smallDB(t)
	db.DeletePoint(1)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumPoints() != 3 || db2.NumObstacles() != 1 {
		t.Fatalf("reloaded sizes: %d points, %d obstacles", db2.NumPoints(), db2.NumObstacles())
	}
	// The deleted (50,50) point must be gone.
	for pid := int32(0); int(pid) < 3; pid++ {
		if p, _ := db2.PointByID(pid); p == Pt(50, 50) {
			t.Fatal("deleted point survived the snapshot")
		}
	}
}

// TestNextIDGuardsInt32Space: the last int32 ID is still handed out, and
// the insert after it gets ErrIDSpaceExhausted instead of a negative ID.
func TestNextIDGuardsInt32Space(t *testing.T) {
	for _, n := range []int{0, 41, math.MaxInt32 - 1, math.MaxInt32} {
		if id, err := nextID(n); err != nil || int(id) != n {
			t.Fatalf("nextID(%d) = %d, %v", n, id, err)
		}
	}
	for _, n := range []int{math.MaxInt32 + 1, math.MaxInt32 + 2, math.MaxInt64, -1} {
		if id, err := nextID(n); !errors.Is(err, ErrIDSpaceExhausted) {
			t.Fatalf("nextID(%d) = %d, %v; want ErrIDSpaceExhausted", n, id, err)
		}
	}
}

// --- MVCC / snapshot-isolation regression tests -------------------------

// TestCloneSharesTombstones: Clone used to drop deletedPts/deletedObs,
// resurrecting deleted objects in PointByID, NumPoints and NumObstacles.
func TestCloneSharesTombstones(t *testing.T) {
	db := smallDB(t)
	if !db.DeletePoint(1) {
		t.Fatal("DeletePoint(1) failed")
	}
	oid, err := db.InsertObstacle(R(70, 70, 80, 80))
	if err != nil {
		t.Fatal(err)
	}
	if !db.DeleteObstacle(oid) {
		t.Fatal("DeleteObstacle failed")
	}
	clone := db.Clone()
	if _, ok := clone.PointByID(1); ok {
		t.Fatal("clone resurrected a deleted point")
	}
	if clone.NumPoints() != db.NumPoints() {
		t.Fatalf("clone NumPoints %d, parent %d", clone.NumPoints(), db.NumPoints())
	}
	if clone.NumObstacles() != db.NumObstacles() {
		t.Fatalf("clone NumObstacles %d, parent %d", clone.NumObstacles(), db.NumObstacles())
	}
	if got, want := len(clone.Points()), db.NumPoints(); got != want {
		t.Fatalf("clone Points() has %d entries, want %d", got, want)
	}
}

// TestCloneSnapshotIsolation: mutating the parent after Clone used to leave
// the clone's engine with a stale obstacle slice while the shared R-tree
// nodes carried the new OID — an index-out-of-range (or silently wrong
// visibility) when the clone next queried. Under MVCC the clone stays
// pinned to its version.
func TestCloneSnapshotIsolation(t *testing.T) {
	db := smallDB(t)
	q := Seg(Pt(0, 0), Pt(100, 0))
	before, _, err := Run(context.Background(), db, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	clone := db.Clone()
	cloneVersion := clone.Version()

	// Parent mutates: new obstacle over the query, new point, a deletion.
	if _, err := db.InsertObstacle(R(30, -10, 35, 5)); err != nil {
		t.Fatalf("InsertObstacle: %v", err)
	}
	if _, err := db.InsertPoint(Pt(60, 1)); err != nil {
		t.Fatalf("InsertPoint: %v", err)
	}
	if !db.DeletePoint(0) {
		t.Fatal("DeletePoint failed")
	}

	// The clone must answer exactly as before the mutations — previously
	// this panicked with an out-of-range obstacle ID.
	after, _, err := Run(context.Background(), clone, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Tuples) != len(before.Tuples) {
		t.Fatalf("clone answer changed: %d tuples vs %d", len(after.Tuples), len(before.Tuples))
	}
	for i := range after.Tuples {
		if after.Tuples[i].PID != before.Tuples[i].PID || after.Tuples[i].Span != before.Tuples[i].Span {
			t.Fatalf("clone tuple %d drifted: %+v vs %+v", i, after.Tuples[i], before.Tuples[i])
		}
	}
	if clone.Version() != cloneVersion {
		t.Fatalf("clone version advanced from %d to %d", cloneVersion, clone.Version())
	}
	if clone.NumPoints() != 4 || clone.NumObstacles() != 1 {
		t.Fatalf("clone sizes drifted: %d points, %d obstacles", clone.NumPoints(), clone.NumObstacles())
	}
	// And the parent must see all three mutations.
	if db.NumPoints() != 4 || db.NumObstacles() != 2 {
		t.Fatalf("parent sizes: %d points, %d obstacles", db.NumPoints(), db.NumObstacles())
	}
	parentRes, _, err := Run(context.Background(), db, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range parentRes.Tuples {
		if tu.PID == 0 {
			t.Fatal("parent answer still contains the deleted point")
		}
	}
}

// TestMutatedCloneForksHistory: a clone may itself be mutated; the fork is
// invisible to the parent and vice versa.
func TestMutatedCloneForksHistory(t *testing.T) {
	db := smallDB(t)
	clone := db.Clone()
	if _, err := clone.InsertPoint(Pt(10, 90)); err != nil {
		t.Fatalf("clone InsertPoint: %v", err)
	}
	if _, err := db.InsertObstacle(R(70, 15, 80, 25)); err != nil {
		t.Fatalf("parent InsertObstacle: %v", err)
	}
	if db.NumPoints() != 4 {
		t.Fatalf("parent saw the clone's insert: %d points", db.NumPoints())
	}
	if clone.NumObstacles() != 1 {
		t.Fatalf("clone saw the parent's insert: %d obstacles", clone.NumObstacles())
	}
	if clone.NumPoints() != 5 {
		t.Fatalf("clone lost its own insert: %d points", clone.NumPoints())
	}
}

// TestVersionAdvancesPerMutation: the epoch moves only on successful
// mutations.
func TestVersionAdvancesPerMutation(t *testing.T) {
	db := smallDB(t)
	v0 := db.Version()
	if _, err := db.InsertPoint(Pt(1, 1)); err != nil {
		t.Fatal(err)
	}
	if db.Version() != v0+1 {
		t.Fatalf("version %d after insert, want %d", db.Version(), v0+1)
	}
	if db.DeletePoint(99) {
		t.Fatal("deleting unknown PID succeeded")
	}
	if _, err := db.InsertObstacle(R(9, 9, 9, 12)); err == nil {
		t.Fatal("degenerate obstacle accepted")
	}
	if db.Version() != v0+1 {
		t.Fatalf("failed mutations advanced the version to %d", db.Version())
	}
}

// TestDegenerateObstaclesRejectedEverywhere: zero-width/height rectangles
// have no open interior but their coincident edges break occlusion-code
// assumptions; Open and InsertObstacle must reject them identically.
func TestDegenerateObstaclesRejectedEverywhere(t *testing.T) {
	cases := []struct {
		r  Rect
		ok bool
	}{
		{R(0, 0, 10, 10), true},
		{R(0, 0, 0, 10), false},                           // zero width
		{R(0, 0, 10, 0), false},                           // zero height
		{R(5, 5, 5, 5), false},                            // point
		{Rect{MinX: 5, MinY: 5, MaxX: 1, MaxY: 1}, false}, // inverted
		{R(0, 0, 1e-12, 10), true},                        // tiny but positive is legal
	}
	for _, tc := range cases {
		_, openErr := Open([]Point{Pt(-5, -5)}, []Rect{tc.r})
		db := smallDB(t)
		_, insErr := db.InsertObstacle(tc.r)
		if (openErr == nil) != tc.ok {
			t.Errorf("Open(%v): err=%v, want ok=%v", tc.r, openErr, tc.ok)
		}
		if (openErr == nil) != (insErr == nil) {
			t.Errorf("Open and InsertObstacle disagree on %v: %v vs %v", tc.r, openErr, insErr)
		}
	}
}
