package connquery

import (
	"fmt"
	"time"

	"connquery/internal/core"
	"connquery/internal/flatgeom"
	"connquery/internal/rtree"
	"connquery/internal/wal"
)

// The write path. Every successor version in this package is built and
// published here: DB.Apply takes one tick's worth of mutations and commits
// them as a single publish, and everything else that mutates a DB is a
// caller of it — the unary ops (mutate.go) are one-member ticks, WAL
// recovery (durable.go) replays the accepted log tail as one tick, and a
// union mirror (shardexec.go) catches up on the router log with one tick.
// The touched R*-trees are copy-on-write cloned once per tick (not once per
// member), the durable tier appends the tick's WAL records in one write
// (one fsync under strict or sync-ack durability), the answer cache is
// invalidated once against the tick's union change boxes, and exactly one
// MVCC version — at epoch base+k for k applied primitives — becomes
// visible. The intermediate epochs base+1 .. base+k-1 exist only as WAL
// records; they are never published and never pinnable.
//
// Order equivalence: members apply in slice order against the working
// state — validation against the working trees, ID assignment from the
// working slice lengths (PIDs/OIDs), tombstones in the working maps — so
// Apply(batch) publishes the same final state, bit for bit, as any split of
// the batch into smaller ticks, down to one call per member, including
// pathological orders like insert → delete → reinsert of the same object
// within one tick. A member that fails validation is reported in its
// MutationResult and skipped; the rest of the batch still applies.

// MutationOp identifies the operation of one DB.Apply batch member.
type MutationOp uint8

const (
	// MutInsertPoint inserts data point P (optionally declaring Speed).
	MutInsertPoint MutationOp = iota + 1
	// MutDeletePoint deletes the data point with PID ID.
	MutDeletePoint
	// MutInsertObstacle inserts obstacle R.
	MutInsertObstacle
	// MutDeleteObstacle deletes the obstacle with OID ID.
	MutDeleteObstacle
	// MutMovePoint moves the data point with PID ID to P: a delete of ID
	// followed by an insert at P, committed in the same tick. The moved
	// object receives a fresh PID (IDs are never reused).
	MutMovePoint
)

// String names the operation for logs and errors.
func (op MutationOp) String() string {
	switch op {
	case MutInsertPoint:
		return "insert-point"
	case MutDeletePoint:
		return "delete-point"
	case MutInsertObstacle:
		return "insert-obstacle"
	case MutDeleteObstacle:
		return "delete-obstacle"
	case MutMovePoint:
		return "move-point"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Mutation is one member of a DB.Apply batch.
type Mutation struct {
	// Op selects the operation; the fields it reads are listed per constant.
	Op MutationOp
	// ID is the target PID (MutDeletePoint, MutMovePoint) or OID
	// (MutDeleteObstacle).
	ID int32
	// P is the inserted or destination position (MutInsertPoint,
	// MutMovePoint).
	P Point
	// R is the inserted obstacle (MutInsertObstacle).
	R Rect
	// Speed optionally declares the object's maximum speed in world units
	// per second (MutInsertPoint, MutMovePoint), registering it for
	// validity-horizon tracking (motion.go). Zero on a move keeps the
	// target's existing declaration; zero on an insert leaves the object
	// untracked. Negative or non-finite speeds fail the member.
	Speed float64
}

// MutationResult reports the outcome of one batch member.
type MutationResult struct {
	// ID is the assigned ID for inserts, the fresh PID for a completed
	// move, and otherwise the target ID of the member.
	ID int32
	// Deleted reports whether a delete (or the delete half of a move)
	// removed an existing object.
	Deleted bool
	// Err is the member's validation failure, nil on success. A move whose
	// delete succeeded but whose insert failed reports Deleted true with
	// the insert's error: the delete stands, exactly as sequential
	// DeletePoint + InsertPoint would have left the database.
	Err error
}

// ApplyResult reports the outcome of one DB.Apply call.
type ApplyResult struct {
	// Epoch is the epoch the batch published — the database's (unchanged)
	// current epoch when no member applied.
	Epoch uint64
	// Applied counts the committed primitive mutations; a completed move
	// contributes two (its delete and its insert).
	Applied int
	// Results holds one entry per batch member, in input order.
	Results []MutationResult
}

// Apply commits a batch of mutations as one tick: one writer-lock
// acquisition, one copy-on-write pass over the touched trees, one WAL
// append (one fsync in strict or sync-ack mode), one cache invalidation
// against the union change boxes, one published version, one watcher
// notification per touched kind. Failed members are reported per entry and
// do not abort the batch. The call returns an error only when the handle is
// unwritable or the durable tier fails (fail-stop: nothing was published).
//
// A batch of compliant tracked moves — every member a MutMovePoint whose
// target is registered and whose displacement respects its declared speed —
// commits as a motion-bounded tick that preserves outstanding validity
// horizons; any other batch bounds them (see motion.go).
func (db *DB) Apply(batch []Mutation) (ApplyResult, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writableLocked(); err != nil {
		return ApplyResult{}, err
	}
	v := db.current()
	now := time.Now()
	b := db.beginBatch(v)
	results := make([]MutationResult, len(batch))
	for i, m := range batch {
		results[i] = b.member(m, now)
	}
	if b.applied == 0 {
		return ApplyResult{Epoch: v.epoch, Results: results}, nil
	}
	if err := b.commit(); err != nil {
		return ApplyResult{}, err
	}
	return ApplyResult{Epoch: b.nv.epoch, Applied: b.applied, Results: results}, nil
}

// Apply applies the batch through the router's public ops, member by
// member in slice order — trivially order-equivalent to the sequential
// calls, with every per-shard commit already wake-filtered. The sharded
// tier amortizes differently than the single-node path (commits group per
// shard under the router's change log), so members publish individually:
// Epoch reports the router revision after the last applied member. The
// sharded tier does not track motion, so Mutation.Speed is accepted but
// ignored and no sharded tick is ever motion-bounded; answers carry no
// validity horizon.
func (s *ShardedDB) Apply(batch []Mutation) (ApplyResult, error) {
	results := make([]MutationResult, len(batch))
	applied := 0
	for i, m := range batch {
		switch m.Op {
		case MutInsertPoint:
			if err := validSpeed(m.Speed); err != nil {
				results[i] = MutationResult{Err: err}
				continue
			}
			pid, err := s.InsertPoint(m.P)
			if err != nil {
				results[i] = MutationResult{Err: err}
				continue
			}
			applied++
			results[i] = MutationResult{ID: pid}
		case MutDeletePoint:
			if !s.DeletePoint(m.ID) {
				results[i] = MutationResult{ID: m.ID, Err: fmt.Errorf("connquery: no live point %d", m.ID)}
				continue
			}
			applied++
			results[i] = MutationResult{ID: m.ID, Deleted: true}
		case MutInsertObstacle:
			oid, err := s.InsertObstacle(m.R)
			if err != nil {
				results[i] = MutationResult{Err: err}
				continue
			}
			applied++
			results[i] = MutationResult{ID: oid}
		case MutDeleteObstacle:
			if !s.DeleteObstacle(m.ID) {
				results[i] = MutationResult{ID: m.ID, Err: fmt.Errorf("connquery: no live obstacle %d", m.ID)}
				continue
			}
			applied++
			results[i] = MutationResult{ID: m.ID, Deleted: true}
		case MutMovePoint:
			if err := validSpeed(m.Speed); err != nil {
				results[i] = MutationResult{ID: m.ID, Err: err}
				continue
			}
			if !s.DeletePoint(m.ID) {
				results[i] = MutationResult{ID: m.ID, Err: fmt.Errorf("connquery: no live point %d", m.ID)}
				continue
			}
			applied++
			pid, err := s.InsertPoint(m.P)
			if err != nil {
				// The delete stands, as in the single-node semantics.
				results[i] = MutationResult{ID: m.ID, Deleted: true, Err: err}
				continue
			}
			applied++
			results[i] = MutationResult{ID: pid, Deleted: true}
		default:
			results[i] = MutationResult{Err: fmt.Errorf("connquery: unknown mutation %s", m.Op)}
		}
	}
	return ApplyResult{Epoch: s.Version(), Applied: applied, Results: results}, nil
}

// motionUpdate is one deferred motion-registry edit, applied only when the
// batch commits (a WAL failure must leave the registry untouched).
type motionUpdate struct {
	pid    int32
	entry  motionEntry
	forget bool
}

// batchState is the working state of one Apply call: a successor version
// under construction whose slices, tombstone maps, trees and kernel advance
// member by member, plus the WAL records, union change boxes and motion
// bookkeeping the commit needs.
type batchState struct {
	db *DB
	v  *version // base version
	nv *version // working successor; epoch finalized per primitive

	kern *flatgeom.Kernel // working kernel, chained Extend per primitive

	// Cloned working trees, nil until the first mutation of the kind. The
	// single clone is mutated in place by later members: R*-tree insertion
	// and deletion decisions depend only on node contents, so one clone
	// receiving k operations is structurally identical to a chain of k
	// clones receiving one each.
	data, obst *rtree.Tree

	ownTombPts, ownTombObs bool // working tombstone maps are private copies

	applied int
	recs    []wal.Record

	ptBox, obsBox Rect
	hasPt, hasObs bool

	// bounded stays true while every member is a fully completed compliant
	// move of a tracked object — the only ticks that preserve validity
	// horizons. Failed members leave no trace and do not affect it.
	bounded bool
	motions []motionUpdate
}

// beginBatch starts a successor of v sharing all of its structure; members
// overwrite the fields they change and commit finalizes epoch and engine.
func (db *DB) beginBatch(v *version) *batchState {
	nv := &version{
		points:     v.points,
		obstacles:  v.obstacles,
		deletedPts: v.deletedPts,
		deletedObs: v.deletedObs,
	}
	return &batchState{db: db, v: v, nv: nv, kern: v.eng.Kernel, bounded: true}
}

// member applies one batch member to the working state.
func (b *batchState) member(m Mutation, now time.Time) MutationResult {
	switch m.Op {
	case MutInsertPoint:
		if err := validSpeed(m.Speed); err != nil {
			b.bounded = false
			return MutationResult{Err: err}
		}
		pid, err := b.insertPoint(m.P)
		if err != nil {
			return MutationResult{Err: err}
		}
		b.bounded = false // new object: outstanding horizons never saw it
		if m.Speed > 0 {
			b.motions = append(b.motions, motionUpdate{pid: pid, entry: motionEntry{pos: m.P, speed: m.Speed, at: now}})
		}
		return MutationResult{ID: pid}
	case MutDeletePoint:
		if err := b.deletePoint(m.ID); err != nil {
			return MutationResult{ID: m.ID, Err: err}
		}
		b.bounded = false
		b.motions = append(b.motions, motionUpdate{pid: m.ID, forget: true})
		return MutationResult{ID: m.ID, Deleted: true}
	case MutInsertObstacle:
		oid, err := b.insertObstacle(m.R)
		if err != nil {
			return MutationResult{Err: err}
		}
		b.bounded = false
		return MutationResult{ID: oid}
	case MutDeleteObstacle:
		if err := b.deleteObstacle(m.ID); err != nil {
			return MutationResult{ID: m.ID, Err: err}
		}
		b.bounded = false
		return MutationResult{ID: m.ID, Deleted: true}
	case MutMovePoint:
		return b.movePoint(m, now)
	}
	b.bounded = false
	return MutationResult{Err: fmt.Errorf("connquery: unknown mutation %s", m.Op)}
}

// movePoint is delete(ID) + insert(P) in one member. Compliance with the
// target's registered speed declaration decides whether the member keeps
// the tick motion-bounded; the database state transition is identical
// either way.
func (b *batchState) movePoint(m Mutation, now time.Time) MutationResult {
	if err := validSpeed(m.Speed); err != nil {
		b.bounded = false
		return MutationResult{ID: m.ID, Err: err}
	}
	reg, tracked := b.db.motion.lookup(m.ID)
	if err := b.deletePoint(m.ID); err != nil {
		b.bounded = false
		return MutationResult{ID: m.ID, Err: err}
	}
	pid, err := b.insertPoint(m.P)
	if err != nil {
		// The delete stands — order equivalence with sequential
		// DeletePoint + InsertPoint. A vanished tracked object only
		// lengthens horizons, but the half-applied member is not a
		// compliant move, so the tick is bounded anyway.
		b.bounded = false
		b.motions = append(b.motions, motionUpdate{pid: m.ID, forget: true})
		return MutationResult{ID: m.ID, Deleted: true, Err: err}
	}
	// Compliant iff the object was tracked and its displacement since the
	// declaration fits the declared speed. Horizons were computed from the
	// registered entry, so compliance is judged against it — not against
	// any newer position the caller believes in.
	compliant := tracked && reg.speed > 0 &&
		dist(reg.pos, m.P) <= reg.speed*now.Sub(reg.at).Seconds()
	if !compliant {
		b.bounded = false
	}
	speed := m.Speed
	if speed == 0 && tracked {
		speed = reg.speed
	}
	b.motions = append(b.motions, motionUpdate{pid: m.ID, forget: true})
	if speed > 0 {
		b.motions = append(b.motions, motionUpdate{pid: pid, entry: motionEntry{pos: m.P, speed: speed, at: now}})
	}
	return MutationResult{ID: pid, Deleted: true}
}

func validSpeed(s float64) error {
	if s < 0 || !validCoord(s) {
		return fmt.Errorf("connquery: invalid speed %v (must be finite and non-negative)", s)
	}
	return nil
}

func dist(a, b Point) float64 {
	return rectDist(a, Rect{MinX: b.X, MinY: b.Y, MaxX: b.X, MaxY: b.Y})
}

// ---------------------------------------------------------------------------
// Working-state primitives: the four operations of the paper's update model,
// each validated and applied against the batch's working version.

// pointTreeR returns the tree to read point items from: the working clone
// when one exists, the base tree otherwise.
func (b *batchState) pointTreeR() *rtree.Tree {
	if b.data != nil {
		return b.data
	}
	return b.v.eng.Data
}

// obstTreeR returns the tree to read obstacle items from.
func (b *batchState) obstTreeR() *rtree.Tree {
	if b.obst != nil {
		return b.obst
	}
	return b.v.eng.Obst
}

// pointTreeW returns the working tree for point mutations, cloning the base
// tree copy-on-write on first use. I/O accounting is detached until commit:
// structural page writes are not part of the paper's query cost model, so
// the writer never charges the page counters readers are using.
func (b *batchState) pointTreeW() *rtree.Tree {
	if b.data == nil {
		b.data = b.v.eng.Data.CloneCOW()
		b.data.SetAccessRecorder(nil)
	}
	return b.data
}

// obstTreeW returns the working tree for obstacle mutations.
func (b *batchState) obstTreeW() *rtree.Tree {
	if b.obst == nil {
		b.obst = b.v.eng.Obst.CloneCOW()
		b.obst.SetAccessRecorder(nil)
	}
	return b.obst
}

// applied bumps the primitive count and returns the primitive's epoch.
func (b *batchState) nextEpoch() uint64 {
	b.applied++
	return b.v.epoch + uint64(b.applied)
}

func (b *batchState) growPtBox(r Rect) {
	if b.hasPt {
		b.ptBox = b.ptBox.Union(r)
	} else {
		b.ptBox, b.hasPt = r, true
	}
}

func (b *batchState) growObsBox(r Rect) {
	if b.hasObs {
		b.obsBox = b.obsBox.Union(r)
	} else {
		b.obsBox, b.hasObs = r, true
	}
}

func (b *batchState) insertPoint(p Point) (int32, error) {
	if !validPoint(p) {
		return 0, fmt.Errorf("connquery: invalid point %v", p)
	}
	nv := b.nv
	var inside *Rect
	w := Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
	b.obstTreeR().View(nil).Search(w, func(it rtree.Item) bool {
		if nv.obstacles[it.ID].ContainsOpen(p) {
			o := nv.obstacles[it.ID]
			inside = &o
			return false
		}
		return true
	})
	if inside != nil {
		return 0, fmt.Errorf("connquery: point %v lies strictly inside obstacle %v", p, *inside)
	}
	pid, err := nextID(len(nv.points))
	if err != nil {
		return 0, err
	}
	if !b.db.ownPts {
		nv.points = grownCopy(nv.points)
		b.db.ownPts = true
	}
	// Appending in place is safe even while older versions are being read:
	// they only ever index their own shorter prefix of the shared array.
	nv.points = append(nv.points, p)
	b.pointTreeW().Insert(rtree.PointItem(pid, p))
	b.kern = b.kern.Extend(nv.obstacles)
	b.recs = append(b.recs, wal.Record{
		Epoch: b.nextEpoch(), Op: wal.OpInsertPoint, ID: pid, Coords: [4]float64{p.X, p.Y},
	})
	b.growPtBox(pointBox(p))
	return pid, nil
}

func (b *batchState) deletePoint(pid int32) error {
	nv := b.nv
	if pid < 0 || int(pid) >= len(nv.points) || nv.deletedPts[pid] {
		return fmt.Errorf("connquery: no live point %d", pid)
	}
	p := nv.points[pid]
	if !b.pointTreeW().Delete(rtree.PointItem(pid, p)) {
		return fmt.Errorf("connquery: no live point %d", pid)
	}
	if !b.ownTombPts {
		nv.deletedPts = cloneTombs(nv.deletedPts, pid)
		b.ownTombPts = true
	} else {
		nv.deletedPts[pid] = true
	}
	b.kern = b.kern.Extend(nv.obstacles)
	b.recs = append(b.recs, wal.Record{
		Epoch: b.nextEpoch(), Op: wal.OpDeletePoint, ID: pid, Coords: [4]float64{p.X, p.Y},
	})
	b.growPtBox(pointBox(p))
	return nil
}

func (b *batchState) insertObstacle(r Rect) (int32, error) {
	if !validRect(r) {
		return 0, fmt.Errorf("connquery: invalid obstacle %v (must be finite with positive width and height)", r)
	}
	var blocked *int32
	b.pointTreeR().View(nil).Search(r, func(it rtree.Item) bool {
		if r.ContainsOpen(it.Point()) {
			id := it.ID
			blocked = &id
			return false
		}
		return true
	})
	if blocked != nil {
		return 0, fmt.Errorf("connquery: obstacle %v would swallow point %d", r, *blocked)
	}
	nv := b.nv
	oid, err := nextID(len(nv.obstacles))
	if err != nil {
		return 0, err
	}
	if !b.db.ownObs {
		nv.obstacles = grownCopy(nv.obstacles)
		b.db.ownObs = true
	}
	nv.obstacles = append(nv.obstacles, r)
	b.obstTreeW().Insert(rtree.ObstacleItem(oid, r))
	b.kern = b.kern.Extend(nv.obstacles)
	b.recs = append(b.recs, wal.Record{
		Epoch: b.nextEpoch(), Op: wal.OpInsertObstacle, ID: oid, Coords: [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY},
	})
	b.growObsBox(r)
	return oid, nil
}

func (b *batchState) deleteObstacle(oid int32) error {
	nv := b.nv
	if oid < 0 || int(oid) >= len(nv.obstacles) || nv.deletedObs[oid] {
		return fmt.Errorf("connquery: no live obstacle %d", oid)
	}
	o := nv.obstacles[oid]
	if !b.obstTreeW().Delete(rtree.ObstacleItem(oid, o)) {
		return fmt.Errorf("connquery: no live obstacle %d", oid)
	}
	if !b.ownTombObs {
		nv.deletedObs = cloneTombs(nv.deletedObs, oid)
		b.ownTombObs = true
	} else {
		nv.deletedObs[oid] = true
	}
	b.kern = b.kern.Extend(nv.obstacles)
	b.recs = append(b.recs, wal.Record{
		Epoch: b.nextEpoch(), Op: wal.OpDeleteObstacle, ID: oid, Coords: [4]float64{o.MinX, o.MinY, o.MaxX, o.MaxY},
	})
	b.growObsBox(o)
	return nil
}

// ---------------------------------------------------------------------------
// Commit

// finishEngine assembles the working version's engine: working clones get
// their accounting reattached, untouched tree handles are shared from the
// base, and the kernel is the per-primitive Extend chain — shared when the
// obstacle slice did not grow (point mutations, deletions: tombstoned
// obstacles stay in the kernel harmlessly, queries never mark them) and
// extended otherwise (Extend itself shares the BVH until the appended tail
// outgrows it). Counters and the shared query-state pool carry over so
// metrics and warm scratch survive across versions.
func (b *batchState) finishEngine() {
	old := b.v.eng
	eng := &core.Engine{
		Data:        old.Data,
		Obst:        old.Obst,
		Obstacles:   b.nv.obstacles,
		Kernel:      b.kern,
		Epoch:       b.nv.epoch,
		States:      b.db.states,
		DataCounter: old.DataCounter,
		ObstCounter: old.ObstCounter,
	}
	if b.data != nil {
		b.data.SetAccessRecorder(old.DataCounter)
		eng.Data = b.data
	}
	if b.obst != nil {
		b.obst.SetAccessRecorder(old.ObstCounter)
		eng.Obst = b.obst
	}
	b.nv.eng = eng
}

// commit publishes the batch in the one order every write follows: log →
// sync → invalidate → lastUnbounded → motions → publish → notify.
//
// On a durable handle the tick's WAL records are appended — and, in strict
// mode or under WithSyncAck, fsynced — before anything else: an error means
// nothing was published, the handle latches fail-stop and the caller
// discards the working version (an orphaned array append is harmless; no
// later mutation can reach the slot).
//
// Instead of a blanket epoch bump, only cache entries whose conservative
// impact region intersects the tick's change boxes are invalidated; every
// other live entry is promoted to the new epoch, so hot requests — and Watch
// subscriptions, which re-resolve through the cache — keep hitting across
// unrelated writes. Invalidation runs before the version swap (both under
// db.mu, so ticks apply to the cache in commit order); the ordering is not
// load-bearing for correctness, because a lookup only hits an entry whose
// validity range covers the queried epoch, but it means a watcher woken by
// this publish finds its promoted entry already in place. Wake-ups are
// filtered against each watcher's impact region, non-blocking, and coalesce
// per watcher.
func (b *batchState) commit() error {
	db := b.db
	b.nv.epoch = b.v.epoch + uint64(b.applied)
	b.finishEngine()
	if d := db.dur; d != nil {
		if err := d.w.AppendBatch(b.recs); err != nil {
			d.err = fmt.Errorf("connquery: durable: %w", err)
			return d.err
		}
		d.since += len(b.recs)
		if db.cfg.syncAck {
			if err := d.syncLocked(); err != nil {
				return err
			}
		}
	}
	db.cache.InvalidateBatch(b.v.epoch, b.nv.epoch, b.ptBox, b.obsBox, b.hasPt, b.hasObs)
	if !b.bounded {
		// Only a tick of compliant tracked moves preserves outstanding
		// validity horizons; anything else bounds them. Store before the
		// version swap: a watcher observing the new epoch must also observe
		// the bound.
		db.lastUnbounded.Store(b.nv.epoch)
	}
	// Registry updates land before the version swap and re-key the table at
	// the batch's epoch: a stamp at the new epoch sees the post-tick table,
	// while an in-flight stamp for an older answer sees ver advance and
	// refuses (motion.go) instead of certifying a horizon from positions the
	// answer never observed.
	db.motion.applyAt(b.motions, b.nv.epoch)
	db.cur.Store(b.nv)
	if b.hasPt {
		db.watch.notify(b.ptBox, true)
	}
	if b.hasObs {
		db.watch.notify(b.obsBox, false)
	}
	if db.dur != nil {
		db.maybeCheckpointLocked()
	}
	return nil
}
