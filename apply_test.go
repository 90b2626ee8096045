package connquery

// Differential harness for DB.Apply. Two references hold the batched
// instance: a second instance driven by the identical mutation stream one
// member at a time through the public ops (one-member ticks of the same
// write path, so this pins that no split of a batch changes the outcome: same
// per-member results, same epoch after every tick, bit-identical answers on
// every request kind), and an independent, deliberately dumb oracle — the
// generator's own books of the live world plus a fresh Open over the live
// sets (checkFreshOracle), which shares no code with the write path.
// Directed tests pin the
// pathological orders (insert → delete → reinsert of the same object in one
// tick, moves whose insert half fails) and the durable tier proves batched
// WAL groups recover to the twin's exact state, including under torn tails.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sequentialApply drives one batch through the public one-by-one mutation
// ops — the behavior DB.Apply must reproduce. It mirrors ShardedDB.Apply's
// member loop so the single-node batched path is differentially pinned
// against the same sequential semantics the sharded tier uses.
func sequentialApply(db Database, batch []Mutation) ApplyResult {
	results := make([]MutationResult, len(batch))
	applied := 0
	for i, m := range batch {
		switch m.Op {
		case MutInsertPoint:
			if err := validSpeed(m.Speed); err != nil {
				results[i] = MutationResult{Err: err}
				continue
			}
			pid, err := db.InsertPoint(m.P)
			if err != nil {
				results[i] = MutationResult{Err: err}
				continue
			}
			applied++
			results[i] = MutationResult{ID: pid}
		case MutDeletePoint:
			if !db.DeletePoint(m.ID) {
				results[i] = MutationResult{ID: m.ID, Err: fmt.Errorf("no live point %d", m.ID)}
				continue
			}
			applied++
			results[i] = MutationResult{ID: m.ID, Deleted: true}
		case MutInsertObstacle:
			oid, err := db.InsertObstacle(m.R)
			if err != nil {
				results[i] = MutationResult{Err: err}
				continue
			}
			applied++
			results[i] = MutationResult{ID: oid}
		case MutDeleteObstacle:
			if !db.DeleteObstacle(m.ID) {
				results[i] = MutationResult{ID: m.ID, Err: fmt.Errorf("no live obstacle %d", m.ID)}
				continue
			}
			applied++
			results[i] = MutationResult{ID: m.ID, Deleted: true}
		case MutMovePoint:
			if err := validSpeed(m.Speed); err != nil {
				results[i] = MutationResult{ID: m.ID, Err: err}
				continue
			}
			if !db.DeletePoint(m.ID) {
				results[i] = MutationResult{ID: m.ID, Err: fmt.Errorf("no live point %d", m.ID)}
				continue
			}
			applied++
			pid, err := db.InsertPoint(m.P)
			if err != nil {
				results[i] = MutationResult{ID: m.ID, Deleted: true, Err: err}
				continue
			}
			applied++
			results[i] = MutationResult{ID: pid, Deleted: true}
		default:
			results[i] = MutationResult{Err: fmt.Errorf("unknown mutation %s", m.Op)}
		}
	}
	return ApplyResult{Epoch: db.Version(), Applied: applied, Results: results}
}

// checkApplyOutcomes requires two ApplyResults to agree member by member:
// same assigned IDs, same delete outcomes, same failure pattern, same
// applied count, same resulting epoch.
func checkApplyOutcomes(t *testing.T, tick int, batch []Mutation, got, want ApplyResult) {
	t.Helper()
	if got.Epoch != want.Epoch {
		t.Fatalf("tick %d: batched epoch %d, sequential %d", tick, got.Epoch, want.Epoch)
	}
	if got.Applied != want.Applied {
		t.Fatalf("tick %d: batched applied %d, sequential %d", tick, got.Applied, want.Applied)
	}
	if len(got.Results) != len(batch) || len(want.Results) != len(batch) {
		t.Fatalf("tick %d: result lengths %d/%d for %d members", tick, len(got.Results), len(want.Results), len(batch))
	}
	for i := range batch {
		g, w := got.Results[i], want.Results[i]
		if g.ID != w.ID || g.Deleted != w.Deleted || (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("tick %d member %d (%s): batched {id %d deleted %v err %v}, sequential {id %d deleted %v err %v}",
				tick, i, batch[i].Op, g.ID, g.Deleted, g.Err, w.ID, w.Deleted, w.Err)
		}
	}
}

// applyGen composes randomized batches against its own books of the live
// world, predicting in-batch ID assignment so one tick can chain operations
// on objects it creates itself. Books are re-synced from the actual results
// after every tick.
type applyGen struct {
	ptPos    map[int32]Point
	obsRects map[int32]Rect
	nextPID  int32
	nextOID  int32
}

func newApplyGen(points []Point, obstacles []Rect) *applyGen {
	g := &applyGen{
		ptPos:    make(map[int32]Point, len(points)),
		obsRects: make(map[int32]Rect, len(obstacles)),
		nextPID:  int32(len(points)),
		nextOID:  int32(len(obstacles)),
	}
	for i, p := range points {
		g.ptPos[int32(i)] = p
	}
	for i, r := range obstacles {
		g.obsRects[int32(i)] = r
	}
	return g
}

func sortedPtIDs(m map[int32]Point) []int32 {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sortedObsIDs(m map[int32]Rect) []int32 {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// safePt draws a point that no obstacle in obs strictly contains, so its
// insertion is guaranteed to validate.
func safePt(w *diffWorkload, obs map[int32]Rect) Point {
	for i := 0; i < 100; i++ {
		p := w.pt()
		blocked := false
		for _, r := range obs {
			if r.ContainsOpen(p) {
				blocked = true
				break
			}
		}
		if !blocked {
			return p
		}
	}
	return Pt(0, 0) // the corner of an obstacle-free world draw; boundary points always validate
}

// safeObs draws an obstacle that swallows none of the live points, so its
// insertion is guaranteed to validate; ok is false when the draw keeps
// colliding.
func safeObs(w *diffWorkload, pts map[int32]Point) (Rect, bool) {
	for i := 0; i < 30; i++ {
		lo := w.pt()
		r := R(lo.X, lo.Y, lo.X+0.5+w.rng.Float64()*6, lo.Y+0.5+w.rng.Float64()*6)
		swallow := false
		for _, p := range pts {
			if r.ContainsOpen(p) {
				swallow = true
				break
			}
		}
		if !swallow {
			return r, true
		}
	}
	return Rect{}, false
}

// compose builds one randomized batch, mixing the five operations with
// deliberate failure members, same-tick insert→delete→reinsert chains, and
// moves whose insert half fails inside an obstacle.
func (g *applyGen) compose(w *diffWorkload) []Mutation {
	simPts := make(map[int32]Point, len(g.ptPos))
	for id, p := range g.ptPos {
		simPts[id] = p
	}
	simObs := make(map[int32]Rect, len(g.obsRects))
	for id, r := range g.obsRects {
		simObs[id] = r
	}
	nextPID, nextOID := g.nextPID, g.nextOID
	n := 1 + w.rng.Intn(6)
	var ms []Mutation
	for attempts := 0; len(ms) < n && attempts < 200; attempts++ {
		switch w.rng.Intn(12) {
		case 0, 1, 2: // insert, sometimes speed-declared
			p := safePt(w, simObs)
			var sp float64
			if w.rng.Intn(3) == 0 {
				sp = 0.5 + w.rng.Float64()*4
			}
			ms = append(ms, Mutation{Op: MutInsertPoint, P: p, Speed: sp})
			simPts[nextPID] = p
			nextPID++
		case 3, 4: // delete a live point
			if ids := sortedPtIDs(simPts); len(ids) > 4 {
				pid := ids[w.rng.Intn(len(ids))]
				ms = append(ms, Mutation{Op: MutDeletePoint, ID: pid})
				delete(simPts, pid)
			}
		case 5: // insert an obstacle
			if r, ok := safeObs(w, simPts); ok {
				ms = append(ms, Mutation{Op: MutInsertObstacle, R: r})
				simObs[nextOID] = r
				nextOID++
			}
		case 6: // delete a live obstacle
			if ids := sortedObsIDs(simObs); len(ids) > 0 {
				oid := ids[w.rng.Intn(len(ids))]
				ms = append(ms, Mutation{Op: MutDeleteObstacle, ID: oid})
				delete(simObs, oid)
			}
		case 7, 8: // move a live point, sometimes speed-declared
			if ids := sortedPtIDs(simPts); len(ids) > 0 {
				pid := ids[w.rng.Intn(len(ids))]
				p := safePt(w, simObs)
				var sp float64
				if w.rng.Intn(3) == 0 {
					sp = 0.5 + w.rng.Float64()*4
				}
				ms = append(ms, Mutation{Op: MutMovePoint, ID: pid, P: p, Speed: sp})
				delete(simPts, pid)
				simPts[nextPID] = p
				nextPID++
			}
		case 9: // deliberate failures: dead targets, invalid speeds
			switch w.rng.Intn(4) {
			case 0:
				ms = append(ms, Mutation{Op: MutDeletePoint, ID: nextPID + 500})
			case 1:
				ms = append(ms, Mutation{Op: MutInsertPoint, P: w.pt(), Speed: -1})
			case 2:
				ms = append(ms, Mutation{Op: MutMovePoint, ID: nextPID + 500, P: w.pt()})
			default:
				ms = append(ms, Mutation{Op: MutDeleteObstacle, ID: g.nextOID + 500})
			}
		case 10: // move into an obstacle interior: the delete stands
			ptIDs, obIDs := sortedPtIDs(simPts), sortedObsIDs(simObs)
			if len(ptIDs) > 4 && len(obIDs) > 0 {
				pid := ptIDs[w.rng.Intn(len(ptIDs))]
				r := simObs[obIDs[w.rng.Intn(len(obIDs))]]
				ms = append(ms, Mutation{Op: MutMovePoint, ID: pid, P: Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2)})
				delete(simPts, pid)
			}
		default: // insert → delete → reinsert of the same object in one tick
			if n-len(ms) >= 3 {
				p := safePt(w, simObs)
				ms = append(ms,
					Mutation{Op: MutInsertPoint, P: p},
					Mutation{Op: MutDeletePoint, ID: nextPID},
					Mutation{Op: MutInsertPoint, P: p},
				)
				simPts[nextPID+1] = p
				nextPID += 2
			}
		}
	}
	return ms
}

// updateBooks re-syncs the generator's books from one tick's actual
// outcomes.
func (g *applyGen) updateBooks(batch []Mutation, res ApplyResult) {
	for i, m := range batch {
		r := res.Results[i]
		switch m.Op {
		case MutInsertPoint:
			if r.Err == nil {
				g.ptPos[r.ID] = m.P
				g.nextPID = r.ID + 1
			}
		case MutDeletePoint:
			if r.Err == nil {
				delete(g.ptPos, m.ID)
			}
		case MutInsertObstacle:
			if r.Err == nil {
				g.obsRects[r.ID] = m.R
				g.nextOID = r.ID + 1
			}
		case MutDeleteObstacle:
			if r.Err == nil {
				delete(g.obsRects, m.ID)
			}
		case MutMovePoint:
			if r.Deleted {
				delete(g.ptPos, m.ID)
			}
			if r.Err == nil && r.Deleted {
				g.ptPos[r.ID] = m.P
				g.nextPID = r.ID + 1
			}
		}
	}
}

// recordBatch appends one tick's committed primitives in WAL order —
// inserts and deletes in member order, a move as its delete then its insert
// — for prefix replay in the torn-tail differential.
func recordBatch(muts []recMut, batch []Mutation, res ApplyResult) []recMut {
	for i, m := range batch {
		r := res.Results[i]
		switch m.Op {
		case MutInsertPoint:
			if r.Err == nil {
				muts = append(muts, recMut{op: recInsPt, p: m.P, id: r.ID})
			}
		case MutDeletePoint:
			if r.Err == nil {
				muts = append(muts, recMut{op: recDelPt, id: m.ID})
			}
		case MutInsertObstacle:
			if r.Err == nil {
				muts = append(muts, recMut{op: recInsObs, r: m.R, id: r.ID})
			}
		case MutDeleteObstacle:
			if r.Err == nil {
				muts = append(muts, recMut{op: recDelObs, id: m.ID})
			}
		case MutMovePoint:
			if r.Deleted {
				muts = append(muts, recMut{op: recDelPt, id: m.ID})
			}
			if r.Err == nil && r.Deleted {
				muts = append(muts, recMut{op: recInsPt, p: m.P, id: r.ID})
			}
		}
	}
	return muts
}

// checkFreshOracle is the reference that owes nothing to the write path: the
// instance's live sets must equal the generator's books object for object,
// and a database bulk-loaded from scratch over those sets must give the same
// CONN and COkNN answers (owner coordinates and split positions; PIDs differ
// after compaction and the rebuilt trees have another shape).
func checkFreshOracle(t *testing.T, label string, dut *DB, g *applyGen, seed int64, opts []Option) {
	t.Helper()
	pts, obs := dut.Points(), dut.Obstacles()
	ptIDs, obsIDs := sortedPtIDs(g.ptPos), sortedObsIDs(g.obsRects)
	if len(pts) != len(ptIDs) || len(obs) != len(obsIDs) {
		t.Fatalf("%s: %d live points and %d live obstacles, books hold %d and %d", label, len(pts), len(obs), len(ptIDs), len(obsIDs))
	}
	for i, id := range ptIDs { // Points() is compact in PID order
		if pts[i] != g.ptPos[id] {
			t.Fatalf("%s: live point %d is %v, books say %v", label, id, pts[i], g.ptPos[id])
		}
	}
	for i, id := range obsIDs {
		if obs[i] != g.obsRects[id] {
			t.Fatalf("%s: live obstacle %d is %v, books say %v", label, id, obs[i], g.obsRects[id])
		}
	}
	fresh, err := Open(pts, obs, opts...)
	if err != nil {
		t.Fatalf("%s: fresh Open over the live sets: %v", label, err)
	}
	w := &diffWorkload{rng: rand.New(rand.NewSource(seed))}
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		q, k := w.seg(), 1+w.rng.Intn(3)
		got, _, err := Run(ctx, dut, CONNRequest{Seg: q})
		if err != nil {
			t.Fatalf("%s: CONN: %v", label, err)
		}
		want, _, err := Run(ctx, fresh, CONNRequest{Seg: q})
		if err != nil {
			t.Fatalf("%s: fresh CONN: %v", label, err)
		}
		if !sameAnswer(t, fmt.Sprintf("%s CONN %v", label, q), got, want) {
			t.FailNow()
		}
		kgot, _, err := Run(ctx, dut, COkNNRequest{Seg: q, K: k})
		if err != nil {
			t.Fatalf("%s: COkNN: %v", label, err)
		}
		kwant, _, err := Run(ctx, fresh, COkNNRequest{Seg: q, K: k})
		if err != nil {
			t.Fatalf("%s: fresh COkNN: %v", label, err)
		}
		if !sameKAnswer(t, fmt.Sprintf("%s COkNN k=%d %v", label, k, q), kgot, kwant) {
			t.FailNow()
		}
	}
}

// sameKAnswer is sameAnswer for COkNN: per tuple, the same owner set by
// coordinates and the same split positions up to a tiny tolerance.
func sameKAnswer(t *testing.T, label string, got, want *KResult) bool {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Errorf("%s: %d tuples, want %d\n got: %+v\nwant: %+v", label, len(got.Tuples), len(want.Tuples), got.Tuples, want.Tuples)
		return false
	}
	const tol = 1e-9
	for i := range got.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if math.Abs(g.Span.Lo-w.Span.Lo) > tol || math.Abs(g.Span.Hi-w.Span.Hi) > tol {
			t.Errorf("%s tuple %d: span %+v, want %+v", label, i, g.Span, w.Span)
			return false
		}
		owners := make(map[Point]int)
		for _, o := range g.Owners {
			owners[o.P]++
		}
		for _, o := range w.Owners {
			owners[o.P]--
		}
		for p, n := range owners {
			if n != 0 {
				t.Errorf("%s tuple %d: owner %v on one side only\n got: %+v\nwant: %+v", label, i, p, g.Owners, w.Owners)
				return false
			}
		}
	}
	return true
}

// runApplyDifferential is the single-node driver: batched ticks against the
// member-by-member instance after every tick, and against the fresh-Open
// oracle every 25 ticks and at the end.
func runApplyDifferential(t *testing.T, seed int64, opts ...Option) {
	t.Helper()
	w, pts, obs := durableWorld(seed)
	o := append([]Option{WithAnswerCache(8 << 20)}, opts...)
	dut, err := Open(pts, obs, o...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(pts, obs, o...)
	if err != nil {
		t.Fatal(err)
	}
	g := newApplyGen(pts, obs)
	ctx := context.Background()
	for tick := 0; tick < 150; tick++ {
		batch := g.compose(w)
		got, err := dut.Apply(batch)
		if err != nil {
			t.Fatalf("tick %d: Apply: %v", tick, err)
		}
		want := sequentialApply(ref, batch)
		checkApplyOutcomes(t, tick, batch, got, want)
		if v1, v2 := dut.Version(), ref.Version(); v1 != v2 {
			t.Fatalf("tick %d: version skew %d vs %d", tick, v1, v2)
		}
		g.updateBooks(batch, got)
		if tick%3 == 0 {
			req := w.newRequest()
			a1, err1 := ref.Exec(ctx, req)
			a2, err2 := dut.Exec(ctx, req)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("tick %d %s: sequential err=%v, batched err=%v", tick, req.Kind(), err1, err2)
			}
			if err1 == nil {
				checkTwinAnswers(t, req, a2, a1)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
		if tick%25 == 24 {
			checkFreshOracle(t, fmt.Sprintf("tick %d", tick), dut, g, seed+int64(tick), opts)
		}
	}
	compareBattery(t, dut, ref, seed+1000, 60)
	checkFreshOracle(t, "final", dut, g, seed+2000, opts)
}

// TestApplyBatchDifferential proves DB.Apply order-equivalent to the
// sequential public ops over randomized ticks: same IDs, same failures, same
// epochs, bit-identical answers on every request kind.
func TestApplyBatchDifferential(t *testing.T) { runApplyDifferential(t, 61) }

// TestShardedApplyDifferential crosses both axes at once: the sharded
// router's Apply (sequential per member, wake-filtered per shard) against
// the single-node batched Apply must agree on every outcome and answer.
func TestShardedApplyDifferential(t *testing.T) {
	w, pts, obs := durableWorld(63)
	dut, err := OpenSharded(pts, obs, 4, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(pts, obs, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	g := newApplyGen(pts, obs)
	ctx := context.Background()
	for tick := 0; tick < 100; tick++ {
		batch := g.compose(w)
		got, err := dut.Apply(batch)
		if err != nil {
			t.Fatalf("tick %d: sharded Apply: %v", tick, err)
		}
		want, err := ref.Apply(batch)
		if err != nil {
			t.Fatalf("tick %d: batched Apply: %v", tick, err)
		}
		checkApplyOutcomes(t, tick, batch, got, want)
		g.updateBooks(batch, got)
		if tick%3 == 0 {
			req := w.newRequest()
			a1, err1 := ref.Exec(ctx, req)
			a2, err2 := dut.Exec(ctx, req)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("tick %d %s: single err=%v, sharded err=%v", tick, req.Kind(), err1, err2)
			}
			if err1 == nil {
				checkTwinAnswers(t, req, a2, a1)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
	compareBattery(t, dut, ref, 631, 60)
}

// TestApplySameObjectTick pins the pathological same-tick order: insert →
// delete → reinsert of one object in a single batch assigns sequential IDs,
// applies three primitives, and publishes one epoch three past the base.
func TestApplySameObjectTick(t *testing.T) {
	db, err := Open([]Point{Pt(10, 10), Pt(50, 50)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Apply([]Mutation{
		{Op: MutInsertPoint, P: Pt(30, 30)},
		{Op: MutDeletePoint, ID: 2},
		{Op: MutInsertPoint, P: Pt(30, 30)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 3 || res.Epoch != 4 {
		t.Fatalf("applied %d at epoch %d, want 3 at 4", res.Applied, res.Epoch)
	}
	wantRes := []MutationResult{{ID: 2}, {ID: 2, Deleted: true}, {ID: 3}}
	for i, want := range wantRes {
		got := res.Results[i]
		if got.ID != want.ID || got.Deleted != want.Deleted || got.Err != nil {
			t.Fatalf("member %d: got {id %d deleted %v err %v}, want {id %d deleted %v}", i, got.ID, got.Deleted, got.Err, want.ID, want.Deleted)
		}
	}
	if db.Version() != 4 || db.NumPoints() != 3 {
		t.Fatalf("version %d with %d points, want 4 with 3", db.Version(), db.NumPoints())
	}

	ref, err := Open([]Point{Pt(10, 10), Pt(50, 50)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InsertPoint(Pt(30, 30)); err != nil {
		t.Fatal(err)
	}
	if !ref.DeletePoint(2) {
		t.Fatal("reference delete failed")
	}
	if _, err := ref.InsertPoint(Pt(30, 30)); err != nil {
		t.Fatal(err)
	}
	compareBattery(t, db, ref, 641, 30)
}

// TestApplyMovePartialFailure pins the half-applied move: an insert half
// failing inside an obstacle leaves the delete standing, exactly as the
// sequential DeletePoint + InsertPoint pair would have.
func TestApplyMovePartialFailure(t *testing.T) {
	db, err := Open([]Point{Pt(10, 10), Pt(20, 20)}, []Rect{R(40, 40, 60, 60)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Apply([]Mutation{{Op: MutMovePoint, ID: 0, P: Pt(50, 50)}})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Results[0]
	if r.ID != 0 || !r.Deleted || r.Err == nil {
		t.Fatalf("half-applied move reported {id %d deleted %v err %v}", r.ID, r.Deleted, r.Err)
	}
	if res.Applied != 1 || res.Epoch != 2 || db.NumPoints() != 1 {
		t.Fatalf("applied %d at epoch %d with %d points, want 1 at 2 with 1", res.Applied, res.Epoch, db.NumPoints())
	}

	ref, err := Open([]Point{Pt(10, 10), Pt(20, 20)}, []Rect{R(40, 40, 60, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.DeletePoint(0) {
		t.Fatal("reference delete failed")
	}
	compareBattery(t, db, ref, 642, 20)

	// A move of a dead point fails whole: nothing applies, nothing publishes.
	v := db.Version()
	res, err = db.Apply([]Mutation{{Op: MutMovePoint, ID: 0, P: Pt(15, 15)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || res.Epoch != v || db.Version() != v {
		t.Fatalf("dead-target move applied %d, epoch %d -> %d", res.Applied, v, db.Version())
	}
	if r := res.Results[0]; r.Err == nil || r.Deleted {
		t.Fatalf("dead-target move reported {deleted %v err %v}", r.Deleted, r.Err)
	}

	// Zero-success and empty batches publish nothing.
	res, err = db.Apply([]Mutation{{Op: MutDeletePoint, ID: 99}, {Op: MutInsertPoint, P: Pt(1, 1), Speed: -3}})
	if err != nil || res.Applied != 0 || res.Epoch != v {
		t.Fatalf("zero-success batch: applied %d, epoch %d (err %v), want 0 at %d", res.Applied, res.Epoch, err, v)
	}
	res, err = db.Apply(nil)
	if err != nil || res.Applied != 0 || res.Epoch != v || len(res.Results) != 0 {
		t.Fatalf("empty batch: %+v (err %v)", res, err)
	}
	if db.Version() != v {
		t.Fatalf("no-op batches moved the version %d -> %d", v, db.Version())
	}
}

// TestDurableApplyCrashRecovery drives a strict-mode durable instance and
// its in-memory twin with identical batches, hard-stops the durable one, and
// requires recovery — replaying the batched WAL groups record by record — to
// land on the twin's exact state and keep twinning afterwards.
func TestDurableApplyCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	w, pts, obs := durableWorld(64)
	dur, err := OpenDurable(dir, WithBootstrapData(pts, obs), WithCheckpointEvery(9), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(pts, obs, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	g := newApplyGen(pts, obs)
	runTicks := func(dut Database, n int) {
		for tick := 0; tick < n; tick++ {
			batch := g.compose(w)
			got, err := dut.Apply(batch)
			if err != nil {
				t.Fatalf("durable Apply: %v", err)
			}
			want, err := mem.Apply(batch)
			if err != nil {
				t.Fatalf("twin Apply: %v", err)
			}
			checkApplyOutcomes(t, tick, batch, got, want)
			g.updateBooks(batch, got)
		}
	}
	runTicks(dur, 60)

	// Hard stop: abandon the handle without Close.
	re, err := OpenDurable(dir, WithCheckpointEvery(9), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	rs := re.RecoveryStats()
	if rs.Epoch != mem.Version() {
		t.Fatalf("recovered to epoch %d, twin is at %d", rs.Epoch, mem.Version())
	}
	t.Logf("recovery stats after batched ticks: %+v", rs)
	compareBattery(t, re, mem, 651, 50)

	runTicks(re, 20)
	compareBattery(t, re, mem, 652, 30)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableApplySyncAck pins the relaxed-durability contract: under group
// commit with an effectively infinite window, WithSyncAck makes every Apply
// return only after its WAL group is fsynced (the log is clean the moment
// the ack lands), the same workload without the option leaves the log dirty,
// and tearing the unsynced tail off the relaxed log recovers exactly the
// sequential prefix the surviving records encode.
func TestDurableApplySyncAck(t *testing.T) {
	w, pts, obs := durableWorld(65)

	// Acked handle: every Apply synced before returning.
	ackDir := t.TempDir()
	acked, err := OpenDurable(ackDir, WithBootstrapData(pts, obs),
		WithGroupCommit(time.Hour), WithSyncAck(), WithCheckpointEvery(-1), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(pts, obs, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	g := newApplyGen(pts, obs)
	var muts []recMut
	var batches [][]Mutation
	for tick := 0; tick < 30; tick++ {
		batch := g.compose(w)
		batches = append(batches, batch)
		got, err := acked.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mem.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		checkApplyOutcomes(t, tick, batch, got, want)
		if got.Applied > 0 && acked.dur.w.Dirty() {
			t.Fatalf("tick %d: Apply acked with the log still dirty under WithSyncAck", tick)
		}
		g.updateBooks(batch, got)
		muts = recordBatch(muts, batch, got)
	}

	// Hard stop: the hour-long window never fired, so only the per-ack
	// fsyncs carried the data — and they carried all of it.
	re, err := OpenDurable(ackDir, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	if re.Version() != mem.Version() {
		t.Fatalf("acked recovery at epoch %d, twin at %d", re.Version(), mem.Version())
	}
	compareBattery(t, re, mem, 661, 40)
	re.Close()

	// Contrast handle: same batches, no sync-ack — the log stays dirty
	// within the window, the documented relaxed window.
	relDir := t.TempDir()
	relaxed, err := OpenDurable(relDir, WithBootstrapData(pts, obs),
		WithGroupCommit(time.Hour), WithCheckpointEvery(-1), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	dirtySeen := false
	for tick, batch := range batches {
		got, err := relaxed.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if got.Applied > 0 && relaxed.dur.w.Dirty() {
			dirtySeen = true
		}
		_ = tick
	}
	if !dirtySeen {
		t.Fatal("relaxed group commit never left the log dirty — the sync-ack contrast is vacuous")
	}
	if relaxed.Version() != mem.Version() {
		t.Fatalf("relaxed handle at epoch %d, twin at %d", relaxed.Version(), mem.Version())
	}

	// Tear the unsynced tail: recovery must land on the exact primitive
	// prefix the surviving log encodes, proven against an in-memory replay.
	chopNewestSegment(t, relDir, 75)
	re2, err := OpenDurable(relDir, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	e := re2.Version()
	if e >= mem.Version() || e < 1 {
		t.Fatalf("torn recovery at epoch %d, twin at %d", e, mem.Version())
	}
	ref := replayPrefix(t, pts, obs, muts, int(e)-1)
	compareBattery(t, re2, ref, 662, 40)
	t.Logf("torn batched recovery: %+v (twin at %d)", re2.RecoveryStats(), mem.Version())
	re2.Close()
}
