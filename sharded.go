package connquery

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"connquery/internal/geom"
	"connquery/internal/rtree"
)

// The sharded tier: N independent single-writer shard units behind a
// scatter-gather router that is bit-identical — payloads AND the
// machine-independent NPE/NOE/|SVG|/Reach metrics — to one DB over the same
// data.
//
// Layout. A uniform grid over the initial data's bounding rectangle
// (shardMap) assigns every data point to exactly one shard by location;
// obstacles are replicated onto every shard whose cell region their
// rectangle intersects. Replication makes shard-local mutation validation
// sufficient (the obstacles that could contain a point live on the point's
// shard; the points an obstacle could swallow live on its target shards)
// and makes the union of any contiguous block of shards a faithful
// sub-world: it holds exactly the points and obstacles falling in the
// block's region.
//
// Reads. A request seeds on the cells its own geometry touches. A
// single-cell request executes directly on that shard's DB — its own
// MVCC chain, its own answer cache. A spanning request executes on a lazily
// maintained union mirror of the block. Either way the executed answer
// reports Metrics.Reach, the retrieval footprint radius instrumented in the
// engine: if the footprint (base box inflated by reach) escapes the block,
// the answer is discarded and the block grows to cover it — the RLMAX-style
// pruning bound of the paper's Lemma 2/7 generalized to shard borders. The
// loop terminates in at most N rounds (the block only grows), and on
// acceptance the union world provably contains every object the global
// execution would consult, so the trace — and with it the payload and every
// machine-independent metric — is identical. Local point IDs translate back
// to global IDs through append-only tables whose order matches global
// insertion order, which keeps even tie-breaks identical (the engine orders
// equal-distance retrievals by (kind, ID)).
//
// Writes. Each mutation locks only its target shards (one for points, the
// replica set for obstacles), validates and applies there, then assigns the
// global ID and revision in a short append-only commit sequencer — the
// WAL-append analogue: heavy copy-on-write index work runs concurrently on
// distinct shards; only the ID/revision stamp serializes. The router
// revision `rev` advances by one per successful mutation, mirroring the
// single-node epoch exactly.

// changeEntry op kinds, in the router's replay log.
const (
	opInsPt uint8 = iota + 1
	opDelPt
	opInsObs
	opDelObs
)

// changeEntry is one committed mutation in the router log. Replaying the
// log in order (filtered to a cell block) reconstructs any union mirror.
// Entry i (0-based) produced revision R+1+i, R being the opened revision
// (1 for a fresh world, the checkpoint's for a recovered one).
type changeEntry struct {
	op  uint8
	gid int32
	p   Point // opInsPt / opDelPt
	r   Rect  // opInsObs / opDelObs
}

// pointLoc records where a global point lives. Append-only, indexed by
// global PID; the stored point also serves mirror replay and watch wakeups.
type pointLoc struct {
	shard int32
	lid   int32
	p     Point
}

// obsRep is one shard replica of an obstacle.
type obsRep struct {
	shard int32
	lid   int32
}

// obsLoc records an obstacle's rectangle and replica set, indexed by global
// OID.
type obsLoc struct {
	r    Rect
	reps []obsRep
}

// shardUnit is one shard: a full single-node DB over the shard's sub-world
// plus the router-side writer lock and ID translation tables.
type shardUnit struct {
	// mu is the router's writer lock for this shard: mutations targeting
	// the shard hold it across validate-apply-commit, and Snapshot holds
	// all of them to cut a consistent cross-shard pin. Readers never take it.
	mu     sync.Mutex
	db     *DB
	region geom.Rect

	// l2gP/l2gO map shard-local IDs to global IDs, append-only in local ID
	// order (appends happen inside the commit sequencer, so local order ==
	// global order; a leading -1 marks the bootstrap dummy of an initially
	// empty shard). Reads take ShardedDB.seqMu.RLock.
	l2gP []int32
	l2gO []int32

	// committedEpoch/committedRev are the shard DB's MVCC epoch as of this
	// shard's last sequencer-committed mutation and the router revision that
	// commit produced (guarded by ShardedDB.seqMu, like the l2g tables).
	// Writers apply to the shard DB before entering the sequencer, so the
	// DB head alone can briefly run ahead of the router log; the live read
	// path compares the head's epoch against committedEpoch to capture a
	// version and a router revision that provably agree.
	committedEpoch uint64
	committedRev   uint64

	execs atomic.Int64 // engine executions routed to this shard
}

// ShardedDB is the spatially sharded database: the same Exec/Watch/
// mutation/snapshot surface as DB (both implement Database), answered by N
// shard units behind a scatter-gather router. Answers are bit-identical to
// a single DB over the same data — including cache-hit and snapshot-pinned
// paths — which the differential harness in sharddiff_test.go proves.
type ShardedDB struct {
	m      *shardMap
	cfg    config
	shards []*shardUnit

	// rev is the router revision: 1 for the opened world, +1 per successful
	// mutation — the exact mirror of the single-node epoch.
	rev atomic.Uint64

	// seqMu guards the commit sequencer state: the replay log, the global
	// ID registries and the shard l2g tables. Writers hold their shard
	// locks across their short seqMu section, so per-shard application
	// order, global ID order and revision order all agree.
	seqMu    sync.RWMutex
	log      []changeEntry
	p2s      []pointLoc
	o2s      []obsLoc
	nInitPts int
	nInitObs int

	nPts atomic.Int64
	nObs atomic.Int64

	// dummy is a point strictly outside the initial world and every initial
	// obstacle, used to bootstrap Open for empty shards and mirrors (Open
	// requires a non-empty point set; the dummy is deleted immediately).
	dummy Point

	// The union-mirror registry is LRU-bounded by mirCap: a cols x rows grid
	// admits O((cols*rows)^2) distinct spans, so an unbounded registry would
	// grow without limit on long-running servers with varied query geometry.
	// mirSeq is the LRU clock and retiredCache accumulates the cache
	// counters of evicted mirrors so CacheStats stays cumulative; all three
	// are guarded by mirMu.
	mirMu          sync.Mutex
	mirrors        map[cellSpan]*unionMirror
	mirSeq         uint64
	mirCap         int
	retiredCache   CacheStats
	retiredPlanner PlannerStats
	mirEvictions   atomic.Int64

	pinMu sync.Mutex
	pins  map[uint64]map[*ShardedSnapshot]struct{}

	watch watchSet

	// dur is the durable attachment (nil for in-memory routers); its mutable
	// fields are guarded by seqMu, and ckptGate keeps concurrent mutations
	// from piling up behind a second automatic checkpoint.
	// initDeadPts/initDeadObs are the opened image's tombstones: objects of
	// the initial range whose deletions live in no router log, which mirror
	// builds must skip. Immutable after open.
	dur         *durableState
	ckptGate    atomic.Bool
	initDeadPts map[int32]bool
	initDeadObs map[int32]bool

	// Router counters, surfaced by ShardStats.
	routerExecs   atomic.Int64
	shardExecs    atomic.Int64
	broadcastCost atomic.Int64
	expansions    atomic.Int64
	fullFanouts   atomic.Int64
	directExecs   atomic.Int64
}

// OpenSharded builds a sharded database over the given points and obstacles,
// partitioned across `shards` shard units by a near-square grid over the
// data's bounding rectangle. The same validation rules as Open apply.
// OpenSharded(points, obstacles, 1, opts...) behaves exactly like
// Open(points, obstacles, opts...) down to IDs, epochs and metrics.
func OpenSharded(points []Point, obstacles []Rect, shards int, opts ...Option) (*ShardedDB, error) {
	if shards < 1 {
		return nil, fmt.Errorf("connquery: OpenSharded needs at least 1 shard, got %d", shards)
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	// Mirror Open's up-front validation (same messages, same order) so the
	// router rejects exactly what the single node rejects.
	if len(points) == 0 {
		return nil, errors.New("connquery: no data points")
	}
	for i, p := range points {
		if !validPoint(p) {
			return nil, fmt.Errorf("connquery: point %d has a non-finite coordinate: %v", i, p)
		}
	}
	for i, o := range obstacles {
		if !validRect(o) {
			return nil, fmt.Errorf("connquery: obstacle %d is malformed: %v (must be finite with positive width and height)", i, o)
		}
	}

	return partition(&ckptData{epoch: 1, points: points, obstacles: obstacles}, shards, cfg)
}

// partition builds a router over a full storage image at revision c.epoch:
// the object arrays in ID order, dead objects included, and their
// tombstones. OpenSharded partitions the caller's world at revision 1;
// durable recovery partitions a checkpoint. The grid covers the image's
// points; every point goes to its owning cell and every obstacle to each
// cell its rectangle intersects, in global ID order with dead objects kept
// as tombstones, so local order is global order on every shard.
func partition(c *ckptData, shards int, cfg config) (*ShardedDB, error) {
	points, obstacles := c.points, c.obstacles
	world := geom.RectFromPoints(points...)
	for _, o := range obstacles {
		world = world.Union(o)
	}
	s := &ShardedDB{
		m:           gridFor(shards, geom.RectFromPoints(points...)),
		cfg:         cfg,
		mirrors:     make(map[cellSpan]*unionMirror),
		pins:        make(map[uint64]map[*ShardedSnapshot]struct{}),
		dummy:       Pt(world.MaxX+1, world.MaxY+1),
		nInitPts:    len(points),
		nInitObs:    len(obstacles),
		initDeadPts: c.deadPts,
		initDeadObs: c.deadObs,
	}
	s.rev.Store(c.epoch)
	s.nPts.Store(int64(len(points) - len(c.deadPts)))
	s.nObs.Store(int64(len(obstacles) - len(c.deadObs)))
	s.mirCap = 2 * s.m.numShards()
	if s.mirCap < 8 {
		s.mirCap = 8
	}

	// Global registries: gids are the image's IDs, exactly the PIDs/OIDs a
	// single node holding the same image uses.
	n := s.m.numShards()
	s.shards = make([]*shardUnit, n)
	s.p2s = make([]pointLoc, len(points))
	s.o2s = make([]obsLoc, len(obstacles))

	for i := 0; i < n; i++ {
		s.shards[i] = &shardUnit{region: s.m.cellRegion(i)}
	}
	for gid, p := range points {
		si := s.m.cellOf(p)
		sh := s.shards[si]
		s.p2s[gid] = pointLoc{shard: int32(si), lid: int32(len(sh.l2gP)), p: p}
		sh.l2gP = append(sh.l2gP, int32(gid))
	}
	for gid, o := range obstacles {
		loc := obsLoc{r: o}
		for i := 0; i < n; i++ {
			sh := s.shards[i]
			if o.Intersects(sh.region) {
				loc.reps = append(loc.reps, obsRep{shard: int32(i), lid: int32(len(sh.l2gO))})
				sh.l2gO = append(sh.l2gO, int32(gid))
			}
		}
		s.o2s[gid] = loc
	}

	// Build each shard's DB over its sub-world. The shard repeats Open's
	// point-inside-obstacle validation on exactly the obstacles that could
	// contain each point (they intersect its cell), so the verdict matches
	// the single node's; only the index named in the error is shard-local.
	for i := 0; i < n; i++ {
		sh := s.shards[i]
		shPts := make([]Point, len(sh.l2gP))
		deadPts := make(map[int32]bool)
		for lid, gid := range sh.l2gP {
			shPts[lid] = points[gid]
			if c.deadPts[gid] {
				deadPts[int32(lid)] = true
			}
		}
		shObs := make([]Rect, len(sh.l2gO))
		deadObs := make(map[int32]bool)
		for lid, gid := range sh.l2gO {
			shObs[lid] = obstacles[gid]
			if c.deadObs[gid] {
				deadObs[int32(lid)] = true
			}
		}
		db, err := openSubWorld(shPts, shObs, deadPts, deadObs, s.dummy, cfg)
		if err != nil {
			return nil, err
		}
		if len(shPts) == 0 {
			// The bootstrap dummy holds local PID 0; keep local and global
			// numbering aligned with a tombstone slot.
			sh.l2gP = append([]int32{-1}, sh.l2gP...)
		}
		sh.db = db
		sh.committedEpoch = db.Version()
		sh.committedRev = c.epoch
	}
	return s, nil
}

// openSubWorld opens a DB at epoch 1 over an ID-ordered object subset whose
// tombstoned slots stay in place, validating every live point against the
// live obstacles as Open does. A DB needs a non-empty point array, so a
// subset without points holds the dummy in a tombstoned slot 0.
func openSubWorld(points []Point, obstacles []Rect, deadPts, deadObs map[int32]bool, dummy Point, cfg config) (*DB, error) {
	if len(points) == 0 {
		points, deadPts = []Point{dummy}, map[int32]bool{0: true}
	}
	db, err := openAt(&ckptData{epoch: 1, points: points, obstacles: obstacles, deadPts: deadPts, deadObs: deadObs}, cfg)
	if err != nil {
		return nil, err
	}
	if err := db.current().checkPlacement(); err != nil {
		return nil, err
	}
	return db, nil
}

// cut is one consistent read position of the router: the revision and the
// number of log entries committed at or before it.
type routerCut struct {
	rev    uint64
	logLen int
	pin    *ShardedSnapshot // non-nil for snapshot-pinned reads
}

// liveCut reads the current revision and log length consistently.
func (s *ShardedDB) liveCut() routerCut {
	s.seqMu.RLock()
	defer s.seqMu.RUnlock()
	return routerCut{rev: s.rev.Load(), logLen: len(s.log)}
}

// commit runs the sequencer section of one mutation: stamp assigns the
// global ID and registry/l2g rows and returns the finished log entry, which
// is appended before the revision advances — all under seqMu, while the
// caller still holds the target shard locks. That nesting is what keeps
// per-shard application order, global ID order and revision order aligned.
// targets are the shards the caller applied the mutation to; their
// committed-position markers advance with the revision, which is what lets
// live reads pair a shard version with the router revision it belongs to.
// On a durable router the entry's WAL record is appended — and fsynced in
// strict mode or under WithSyncAck — before the revision advances, so the
// on-disk log is always a prefix of the revision stream. The target shards
// already applied the mutation in memory, so a log failure cannot be rolled
// back: the entry still commits in memory and the error latches, refusing
// every later mutation; recovery after the inevitable restart ends before
// the unlogged mutation.
func (s *ShardedDB) commit(stamp func() changeEntry, targets ...*shardUnit) uint64 {
	s.seqMu.Lock()
	e := stamp()
	rev := s.rev.Load() + 1
	if d := s.dur; d != nil && d.writable() == nil {
		if err := d.w.Append(entryRecord(e, rev)); err != nil {
			d.err = fmt.Errorf("connquery: durable: %w", err)
		} else {
			d.since++
			if s.cfg.syncAck {
				d.syncLocked() //nolint:errcheck // latched in d.err
			}
		}
	}
	s.log = append(s.log, e)
	s.rev.Store(rev)
	for _, sh := range targets {
		sh.committedEpoch = sh.db.Version()
		sh.committedRev = rev
	}
	s.seqMu.Unlock()
	return rev
}

// InsertPoint adds a data point to its owning shard and returns its global
// PID. Same contract and error cases as DB.InsertPoint.
func (s *ShardedDB) InsertPoint(p Point) (int32, error) {
	if !validPoint(p) {
		return 0, fmt.Errorf("connquery: invalid point %v", p)
	}
	if err := s.durWritable(); err != nil {
		return 0, err
	}
	s.maybeCheckpointDurable()
	si := s.m.cellOf(p)
	sh := s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := s.gidRoom(false); err != nil {
		return 0, err
	}
	lid, err := sh.db.InsertPoint(p)
	if err != nil {
		// The shard holds every obstacle intersecting p's cell, hence every
		// obstacle that could contain p: the verdict equals the single
		// node's, and no global ID is consumed on failure. Remap the
		// message's obstacle reference? The message embeds the rectangle,
		// not an ID, so it passes through unchanged.
		return 0, err
	}
	var gid int32
	s.commit(func() changeEntry {
		gid = int32(len(s.p2s))
		s.p2s = append(s.p2s, pointLoc{shard: int32(si), lid: lid, p: p})
		sh.l2gP = append(sh.l2gP, gid)
		return changeEntry{op: opInsPt, gid: gid, p: p}
	}, sh)
	s.nPts.Add(1)
	s.watch.notify(pointBox(p), true)
	return gid, nil
}

// DeletePoint tombstones a global PID. Same contract as DB.DeletePoint:
// false for unknown or already-deleted IDs.
func (s *ShardedDB) DeletePoint(gid int32) bool {
	if s.durWritable() != nil {
		return false
	}
	s.maybeCheckpointDurable()
	s.seqMu.RLock()
	if gid < 0 || int(gid) >= len(s.p2s) {
		s.seqMu.RUnlock()
		return false
	}
	loc := s.p2s[gid]
	s.seqMu.RUnlock()
	sh := s.shards[loc.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.db.DeletePoint(loc.lid) {
		return false
	}
	s.commit(func() changeEntry { return changeEntry{op: opDelPt, gid: gid, p: loc.p} }, sh)
	s.nPts.Add(-1)
	s.watch.notify(pointBox(loc.p), true)
	return true
}

// InsertObstacle adds an obstacle, replicated onto every shard whose region
// it intersects, and returns its global OID. Same contract and error cases
// as DB.InsertObstacle; the swallow check runs on the replica shards, which
// hold exactly the points the obstacle could swallow.
func (s *ShardedDB) InsertObstacle(r Rect) (int32, error) {
	if !validRect(r) {
		return 0, fmt.Errorf("connquery: invalid obstacle %v (must be finite with positive width and height)", r)
	}
	if err := s.durWritable(); err != nil {
		return 0, err
	}
	s.maybeCheckpointDurable()
	var targets []*shardUnit
	var tids []int32
	for i, sh := range s.shards { // ascending index: the global lock order
		if r.Intersects(sh.region) {
			targets = append(targets, sh)
			tids = append(tids, int32(i))
		}
	}
	for _, sh := range targets {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(targets) - 1; i >= 0; i-- {
			targets[i].mu.Unlock()
		}
	}()
	if err := s.gidRoom(true); err != nil {
		return 0, err
	}
	// Validate on every replica before applying to any: a swallow hit on
	// shard 3 must not leave the obstacle half-inserted on shards 1-2.
	for _, sh := range targets {
		if pid, swallowed := sh.swallowedPoint(r); swallowed {
			s.seqMu.RLock()
			gpid := sh.l2gP[pid]
			s.seqMu.RUnlock()
			return 0, fmt.Errorf("connquery: obstacle %v would swallow point %d", r, gpid)
		}
	}
	lids := make([]int32, len(targets))
	for i, sh := range targets {
		lid, err := sh.db.InsertObstacle(r)
		if err != nil {
			return 0, fmt.Errorf("connquery: internal: replica insert diverged after validation: %w", err)
		}
		lids[i] = lid
	}
	var gid int32
	s.commit(func() changeEntry {
		gid = int32(len(s.o2s))
		loc := obsLoc{r: r}
		for i, sh := range targets {
			loc.reps = append(loc.reps, obsRep{shard: tids[i], lid: lids[i]})
			sh.l2gO = append(sh.l2gO, gid)
		}
		s.o2s = append(s.o2s, loc)
		return changeEntry{op: opInsObs, gid: gid, r: r}
	}, targets...)
	s.nObs.Add(1)
	s.watch.notify(r, false)
	return gid, nil
}

// gidRoom returns ErrIDSpaceExhausted unless an insert whose caller holds a
// shard lock is sure to receive an in-range global PID (or OID, for
// obstacles) when it commits. Every insert between this check and its
// commit holds at least one shard lock too, so at most numShards-1 others
// can claim an ID first; the check keeps room for all of them, and a
// failed insert touches no shard.
func (s *ShardedDB) gidRoom(obstacles bool) error {
	s.seqMu.RLock()
	n := len(s.p2s)
	if obstacles {
		n = len(s.o2s)
	}
	s.seqMu.RUnlock()
	_, err := nextID(n + len(s.shards) - 1)
	return err
}

// swallowedPoint reports whether inserting r on this shard would strictly
// contain a live point, and that point's local PID — the same check
// DB.InsertObstacle performs, run separately so the router can validate all
// replicas before mutating any.
func (sh *shardUnit) swallowedPoint(r Rect) (int32, bool) {
	v := sh.db.current()
	blocked := int32(-1)
	v.eng.Data.View(nil).Search(r, func(it rtree.Item) bool {
		if !v.deletedPts[it.ID] && r.ContainsOpen(v.points[it.ID]) {
			blocked = it.ID
			return false
		}
		return true
	})
	return blocked, blocked >= 0
}

// DeleteObstacle tombstones a global OID on every replica shard. Same
// contract as DB.DeleteObstacle.
func (s *ShardedDB) DeleteObstacle(gid int32) bool {
	if s.durWritable() != nil {
		return false
	}
	s.maybeCheckpointDurable()
	s.seqMu.RLock()
	if gid < 0 || int(gid) >= len(s.o2s) {
		s.seqMu.RUnlock()
		return false
	}
	loc := s.o2s[gid]
	s.seqMu.RUnlock()
	var targets []*shardUnit
	for _, rep := range loc.reps {
		targets = append(targets, s.shards[rep.shard])
	}
	for _, sh := range targets {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(targets) - 1; i >= 0; i-- {
			targets[i].mu.Unlock()
		}
	}()
	// Replicas tombstone in lockstep (they were created together and only
	// this method deletes them, under all replica locks), so the first
	// replica's verdict is the obstacle's.
	for i, rep := range loc.reps {
		if !targets[i].db.DeleteObstacle(rep.lid) {
			return false
		}
	}
	s.commit(func() changeEntry { return changeEntry{op: opDelObs, gid: gid, r: loc.r} }, targets...)
	s.nObs.Add(-1)
	s.watch.notify(loc.r, false)
	return true
}

// NumPoints returns the live data point count across all shards.
func (s *ShardedDB) NumPoints() int { return int(s.nPts.Load()) }

// NumObstacles returns the live obstacle count (each replicated obstacle
// counted once).
func (s *ShardedDB) NumObstacles() int { return int(s.nObs.Load()) }

// Version returns the router revision: 1 for the opened world, +1 per
// successful mutation — the exact mirror of DB.Version over the same
// mutation history.
func (s *ShardedDB) Version() uint64 { return s.rev.Load() }

// addCacheStats folds one cache's counters into an aggregate.
func addCacheStats(agg *CacheStats, st CacheStats) {
	agg.Hits += st.Hits
	agg.Misses += st.Misses
	agg.Promotions += st.Promotions
	agg.PromotedHits += st.PromotedHits
	agg.Invalidations += st.Invalidations
	agg.Evictions += st.Evictions
	agg.Entries += st.Entries
	agg.Bytes += st.Bytes
}

// CacheStats aggregates the answer-cache counters of every shard and every
// live union mirror, plus the final counters of mirrors the registry has
// LRU-evicted (so the hit/miss totals stay cumulative across evictions).
func (s *ShardedDB) CacheStats() CacheStats {
	var agg CacheStats
	for _, sh := range s.shards {
		addCacheStats(&agg, sh.db.CacheStats())
	}
	s.mirMu.Lock()
	mirrors := make([]*unionMirror, 0, len(s.mirrors))
	for _, m := range s.mirrors {
		mirrors = append(mirrors, m)
	}
	addCacheStats(&agg, s.retiredCache)
	s.mirMu.Unlock()
	for _, m := range mirrors {
		m.mu.Lock()
		// A mirror evicted after the registry snapshot above already folded
		// its counters into retiredCache; counting it again would double.
		if m.db != nil && !m.retired {
			addCacheStats(&agg, m.db.CacheStats())
		}
		m.mu.Unlock()
	}
	return agg
}

// PlannerStats aggregates the execution-planner counters of every world the
// router executes on: the shard units, the live union mirrors, and the
// pinned union sub-worlds of unreleased snapshots — plus the final counters
// of LRU-evicted mirrors and released pins (retiredPlanner), the same
// cumulative-across-evictions contract as CacheStats.
func (s *ShardedDB) PlannerStats() PlannerStats {
	var agg PlannerStats
	for _, sh := range s.shards {
		addPlannerStats(&agg, sh.db.PlannerStats())
	}
	s.pinMu.Lock()
	var pins []*ShardedSnapshot
	for _, set := range s.pins {
		for sp := range set {
			pins = append(pins, sp)
		}
	}
	s.pinMu.Unlock()
	for _, sp := range pins {
		sp.mu.Lock()
		// A pin released after the registry snapshot above already folded its
		// unions into retiredPlanner; counting them again would double.
		if !sp.plannerFolded {
			for _, u := range sp.unions {
				addPlannerStats(&agg, u.db.PlannerStats())
			}
		}
		sp.mu.Unlock()
	}
	s.mirMu.Lock()
	mirrors := make([]*unionMirror, 0, len(s.mirrors))
	for _, m := range s.mirrors {
		mirrors = append(mirrors, m)
	}
	addPlannerStats(&agg, s.retiredPlanner)
	s.mirMu.Unlock()
	for _, m := range mirrors {
		m.mu.Lock()
		// Same double-count guard as CacheStats: a mirror evicted after the
		// registry snapshot already folded into retiredPlanner.
		if m.db != nil && !m.retired {
			addPlannerStats(&agg, m.db.PlannerStats())
		}
		m.mu.Unlock()
	}
	return agg
}

// ShardStat is one shard's row in ShardStats.
type ShardStat struct {
	Points    int    `json:"points"`
	Obstacles int    `json:"obstacles"` // replicas resident on this shard
	Epoch     uint64 `json:"epoch"`     // the shard DB's own MVCC epoch
	Execs     int64  `json:"execs"`
}

// ShardStats is a snapshot of the router's scatter-gather counters.
// ShardExecs versus BroadcastCost is the pruning observable: a broadcast
// router would run every request on every shard (BroadcastCost); the
// reach-bounded router runs DirectExecs single-shard requests on one and
// spans only as far as retrieval footprints require.
type ShardStats struct {
	Shards        int         `json:"shards"`
	Cols          int         `json:"cols"`
	Rows          int         `json:"rows"`
	RouterExecs   int64       `json:"router_execs"`
	ShardExecs    int64       `json:"shard_execs"`      // sum of |cells| over all exec rounds
	BroadcastCost int64       `json:"broadcast_cost"`   // router_execs * shards
	Expansions    int64       `json:"expansions"`       // rounds rerun after a footprint escape
	FullFanouts   int64       `json:"full_fanouts"`     // rounds spanning every shard
	DirectExecs   int64       `json:"direct_execs"`     // rounds on exactly one shard
	Mirrors       int         `json:"mirrors"`          // live union mirrors (LRU-bounded)
	MirrorEvicts  int64       `json:"mirror_evictions"` // mirrors dropped by the registry LRU
	PerShard      []ShardStat `json:"per_shard"`
}

// ShardStats returns the current router counters and per-shard sizes.
func (s *ShardedDB) ShardStats() ShardStats {
	st := ShardStats{
		Shards:        s.m.numShards(),
		Cols:          s.m.cols,
		Rows:          s.m.rows,
		RouterExecs:   s.routerExecs.Load(),
		ShardExecs:    s.shardExecs.Load(),
		BroadcastCost: s.broadcastCost.Load(),
		Expansions:    s.expansions.Load(),
		FullFanouts:   s.fullFanouts.Load(),
		DirectExecs:   s.directExecs.Load(),
		MirrorEvicts:  s.mirEvictions.Load(),
	}
	s.mirMu.Lock()
	st.Mirrors = len(s.mirrors)
	s.mirMu.Unlock()
	for _, sh := range s.shards {
		st.PerShard = append(st.PerShard, ShardStat{
			Points:    sh.db.NumPoints(),
			Obstacles: sh.db.NumObstacles(),
			Epoch:     sh.db.Version(),
			Execs:     sh.execs.Load(),
		})
	}
	return st
}
