package connquery

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"connquery/internal/anscache"
	"connquery/internal/geom"
)

// The router read path. Every request seeds on the cells its own geometry
// touches and executes on the smallest world that provably contains
// everything the global execution would consult; the proof obligation is
// discharged a posteriori through Metrics.Reach, the engine's retrieval
// footprint radius. See sharded.go for the architecture overview and
// ARCHITECTURE.md for the acceptance-soundness sketch.

// seedBox returns the initial footprint guess for routing: the request's
// base box inflated by any radius the request itself declares. Purely a
// round-count optimization — the acceptance loop is what guarantees
// correctness.
func seedBox(req Request) geom.Rect {
	bb := requestBaseBox(req)
	if bb.Empty() {
		return bb
	}
	switch r := req.(type) {
	case RangeRequest:
		bb = bb.Buffer(r.Radius)
	case EDistanceJoinRequest:
		if r.E > 0 {
			bb = bb.Buffer(r.E)
		}
	}
	return bb
}

// Exec executes a Request against one consistent cross-shard cut and
// returns its Answer, bit-identical — payload, epoch and the
// machine-independent NPE/NOE/|SVG|/Reach metrics — to DB.Exec over the
// same data and mutation history. The cut is the live revision unless
// AtVersion or a ShardedSnapshot's At pins another; plain AtSnapshot
// handles belong to a DB and are rejected with ErrForeignSnapshot.
func (s *ShardedDB) Exec(ctx context.Context, req Request, opts ...QueryOption) (*Answer, error) {
	if req == nil {
		return nil, ErrNilRequest
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var xo execOptions
	for _, o := range opts {
		o(&xo)
	}
	cut, err := s.resolveCut(&xo)
	if err != nil {
		return nil, err
	}
	ans, _, err := s.execRouted(ctx, req, &xo, cut)
	if err != nil {
		return nil, err
	}
	if xo.byEpoch && ans.Epoch() != xo.epoch {
		// AtVersion resolved to the live cut, but a commit overtook the
		// requested revision before the shard state could be captured; with
		// no pin holding the older state, the verdict is the same one cutAt
		// gives for any other unpinned revision.
		return nil, fmt.Errorf("%w: epoch %d (current %d; pin versions with ShardedDB.Snapshot)", ErrVersionNotPinned, xo.epoch, ans.Epoch())
	}
	return ans, nil
}

// resolveCut picks the router cut the query runs against, mirroring
// DB.resolveVersion's error cases.
func (s *ShardedDB) resolveCut(xo *execOptions) (routerCut, error) {
	switch {
	case xo.bySnap:
		if xo.snap == nil {
			return routerCut{}, errors.New("connquery: AtSnapshot(nil)")
		}
		return routerCut{}, ErrForeignSnapshot
	case xo.bySSnap:
		sp := xo.ssnap
		if sp == nil {
			return routerCut{}, errors.New("connquery: AtSnapshot(nil)")
		}
		if sp.s != s {
			return routerCut{}, ErrForeignSnapshot
		}
		if sp.Released() {
			return routerCut{}, ErrSnapshotReleased
		}
		return routerCut{rev: sp.rev, logLen: sp.logLen, pin: sp}, nil
	case xo.byEpoch:
		return s.cutAt(xo.epoch)
	default:
		return s.liveCut(), nil
	}
}

// cutAt resolves an explicit revision: the live one, or one held by an
// unreleased ShardedSnapshot.
func (s *ShardedDB) cutAt(epoch uint64) (routerCut, error) {
	cut := s.liveCut()
	if epoch == cut.rev {
		return cut, nil
	}
	s.pinMu.Lock()
	var sp *ShardedSnapshot
	for p := range s.pins[epoch] {
		sp = p
		break
	}
	s.pinMu.Unlock()
	if sp == nil {
		return routerCut{}, fmt.Errorf("%w: epoch %d (current %d; pin versions with ShardedDB.Snapshot)", ErrVersionNotPinned, epoch, cut.rev)
	}
	return routerCut{rev: sp.rev, logLen: sp.logLen, pin: sp}, nil
}

// execRouted runs the scatter-gather loop at a cut and returns the
// translated answer plus its wake region (the retrieval footprint with the
// request's mutation-kind sensitivity), which the sharded watch uses to
// skip wakeups that provably cannot change the answer. Pinned and
// mirror-backed reads run exactly at the given cut; a live single-shard
// read may slide the cut forward when a commit on the target shard
// overtook it (spanWorld), so the answer's stamped epoch — which always
// matches the data it reflects — can exceed the requested cut.rev.
func (s *ShardedDB) execRouted(ctx context.Context, req Request, xo *execOptions, cut routerCut) (*Answer, anscache.Region, error) {
	span := s.m.spanFor(seedBox(req))
	base := requestBaseBox(req)
	s.routerExecs.Add(1)
	s.broadcastCost.Add(int64(s.m.numShards()))
	// The inner options forward the workers and cache choices but never the
	// pin: the executing world's version is supplied explicitly.
	inner := &execOptions{workers: xo.workers, hasWork: xo.hasWork, noCache: xo.noCache}
	for {
		s.shardExecs.Add(int64(span.size()))
		if span.single() {
			s.directExecs.Add(1)
		}
		if span.size() == s.m.numShards() {
			s.fullFanouts.Add(1)
		}
		var db *DB
		var v *version
		var l2g []int32
		var err error
		db, v, l2g, cut, err = s.spanWorld(cut, span)
		if err != nil {
			return nil, anscache.Region{}, err
		}
		ans, err := db.execAt(ctx, req, v, inner)
		if err != nil {
			return nil, anscache.Region{}, err
		}
		// The acceptance test: inflate the base box by the reach this
		// execution reports and check the result still resolves to the same
		// cell block. On acceptance the block's union world contains every
		// object within reach of the query geometry — exactly the set the
		// global execution can consult (the coverage bound behind the answer
		// cache's widened impact regions) — so the trace is the global trace.
		needBox := base
		if !needBox.Empty() {
			if reach := ans.Metrics().Reach; math.IsInf(reach, 1) {
				needBox = anscache.InfiniteRect()
			} else {
				needBox = needBox.Buffer(reach + shardGuard)
			}
		}
		next := span
		if !needBox.Empty() {
			next = span.union(s.m.spanFor(needBox))
		}
		if next == span {
			// The wake region for sharded watches: the same widened impact
			// region the answer cache proves sufficient for invalidation, so
			// a mutation outside it cannot change this answer.
			region := widenRegion(impactRegion(req, ans.value), req, ans.metrics.Reach)
			return translatedAnswer(ans, req, l2g, cut.rev), region, nil
		}
		span = next
		s.expansions.Add(1)
	}
}

// spanWorld returns the executable world of a cell block at a cut: a DB
// whose current/pinned version holds exactly the block's sub-world, plus
// the local-to-global PID table for answer translation, plus the cut the
// world actually sits at. Pinned and mirror-backed worlds sit exactly at
// the given cut. A live single-shard read captures the shard's committed
// head, which a concurrent writer may have pushed past the cut; in that
// case the returned cut slides forward to the captured position so the
// stamped revision and the executed data always agree.
func (s *ShardedDB) spanWorld(cut routerCut, span cellSpan) (*DB, *version, []int32, routerCut, error) {
	if span.single() {
		idx := span.r0*s.m.cols + span.c0
		sh := s.shards[idx]
		sh.execs.Add(1)
		if cut.pin != nil {
			return sh.db, cut.pin.snaps[idx].v, s.shardL2GP(sh), cut, nil
		}
		// Live read: capture the shard's committed state together with the
		// router position it belongs to. The writer applies to the shard DB
		// before its sequencer section, so the DB head can briefly be ahead
		// of the last commit (and of the l2g table); a head whose epoch
		// disagrees with the shard's committed epoch is mid-commit — retry
		// until apply and commit agree. On agreement the captured version is
		// the shard's exact state for every router revision in
		// [committedRev, rev], and the l2g table covers it.
		for {
			s.seqMu.RLock()
			ce, cr := sh.committedEpoch, sh.committedRev
			l2g := sh.l2gP
			rev, logLen := s.rev.Load(), len(s.log)
			s.seqMu.RUnlock()
			v := sh.db.current()
			if v.epoch != ce {
				runtime.Gosched()
				continue
			}
			if cut.rev >= cr {
				// The cut falls inside [cr, rev]: v is the shard's state at
				// cut.rev exactly, so the original stamp stands.
				return sh.db, v, l2g, cut, nil
			}
			// A commit on this shard overtook the cut before the capture and
			// the older state holds no pin; slide the cut to the consistent
			// position read above.
			return sh.db, v, l2g, routerCut{rev: rev, logLen: logLen}, nil
		}
	}
	if cut.pin != nil {
		db, v, l2g, err := cut.pin.unionWorld(span)
		return db, v, l2g, cut, err
	}
	db, v, l2g, err := s.mirrorWorld(cut, span)
	return db, v, l2g, cut, err
}

// shardL2GP snapshots a shard's local-to-global point table.
func (s *ShardedDB) shardL2GP(sh *shardUnit) []int32 {
	s.seqMu.RLock()
	defer s.seqMu.RUnlock()
	return sh.l2gP
}

// ---------------------------------------------------------------------------
// Union mirrors

// unionMirror is the live union world of a multi-cell block: a DB over the
// block's points and obstacles, maintained by replaying the router log
// (filtered to the block) on demand. Because replay order is global ID
// order, the mirror's local IDs are order-isomorphic to global IDs, which
// keeps the engine's (distance, kind, ID) tie-breaks — and therefore the
// full retrieval trace — identical to the single node's.
type unionMirror struct {
	mu      sync.Mutex
	span    cellSpan
	rect    geom.Rect
	db      *DB // nil until first use
	nextLog int
	g2lP    map[int32]int32
	g2lO    map[int32]int32
	l2gP    []int32

	lastUse uint64 // registry LRU clock (guarded by ShardedDB.mirMu)
	retired bool   // LRU-evicted; counters already folded into retiredCache (guarded by mu)
}

// mirrorFor returns (creating if needed) the mirror registry entry of a
// block; the expensive build happens lazily under the mirror's own lock.
// The registry is LRU-bounded (mirCap): each mirror carries a full copy of
// its block's data plus an answer cache, and the possible spans are
// quadratic in the grid size, so admitting a new span may evict the
// longest-idle one. Eviction loses only work — the span's next query
// rebuilds the mirror from the log — never answers.
func (s *ShardedDB) mirrorFor(span cellSpan) *unionMirror {
	s.mirMu.Lock()
	defer s.mirMu.Unlock()
	m, ok := s.mirrors[span]
	if !ok {
		m = &unionMirror{span: span, rect: s.m.spanRect(span)}
		s.mirrors[span] = m
		s.evictMirrors(m)
	}
	s.mirSeq++
	m.lastUse = s.mirSeq
	return m
}

// evictMirrors drops least-recently-used mirrors until the registry fits
// mirCap again, sparing keep and any mirror whose lock is contended (a
// held lock means a build or catch-up is in flight — de facto hot, and
// folding its counters would block behind it). Counters of the evicted
// accumulate in retiredCache so CacheStats stays cumulative. Caller holds
// mirMu.
func (s *ShardedDB) evictMirrors(keep *unionMirror) {
	if len(s.mirrors) <= s.mirCap {
		return
	}
	type cand struct {
		span cellSpan
		m    *unionMirror
	}
	cands := make([]cand, 0, len(s.mirrors))
	for span, m := range s.mirrors {
		if m != keep {
			cands = append(cands, cand{span, m})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].m.lastUse < cands[j].m.lastUse })
	for _, c := range cands {
		if len(s.mirrors) <= s.mirCap {
			return
		}
		if !c.m.mu.TryLock() {
			continue
		}
		if c.m.db != nil {
			addCacheStats(&s.retiredCache, c.m.db.CacheStats())
			addPlannerStats(&s.retiredPlanner, c.m.db.PlannerStats())
		}
		c.m.retired = true
		c.m.mu.Unlock()
		delete(s.mirrors, c.span)
		s.mirEvictions.Add(1)
	}
}

// mirrorWorld builds/catches up the block's mirror to the cut and captures
// an executable (version, l2g) pair under the mirror lock.
func (s *ShardedDB) mirrorWorld(cut routerCut, span cellSpan) (*DB, *version, []int32, error) {
	m := s.mirrorFor(span)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.db == nil {
		if err := s.buildMirror(m); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := s.catchUpMirror(m, cut.logLen); err != nil {
		return nil, nil, nil, err
	}
	return m.db, m.db.current(), m.l2gP, nil
}

// buildMirror opens the mirror DB over the block's slice of the *initial*
// dataset (global IDs 0..nInit-1 in order); catchUpMirror replays the rest.
func (s *ShardedDB) buildMirror(m *unionMirror) error {
	s.seqMu.RLock()
	initPts := s.p2s[:s.nInitPts]
	initObs := s.o2s[:s.nInitObs]
	s.seqMu.RUnlock()

	m.g2lP = make(map[int32]int32)
	m.g2lO = make(map[int32]int32)
	var pts []Point
	var l2gP []int32
	for gid := range initPts {
		// Initial-range objects dead at a recovered checkpoint never appear
		// in the replay log; including them here would resurrect them (and a
		// dead point may even sit inside a younger obstacle, which Open
		// rejects).
		if s.initDeadPts[int32(gid)] {
			continue
		}
		p := initPts[gid].p
		if c, r := s.m.cellCoords(p); m.span.contains(c, r) {
			m.g2lP[int32(gid)] = int32(len(pts))
			l2gP = append(l2gP, int32(gid))
			pts = append(pts, p)
		}
	}
	var obs []Rect
	for gid := range initObs {
		if s.initDeadObs[int32(gid)] {
			continue
		}
		if o := initObs[gid].r; o.Intersects(m.rect) {
			m.g2lO[int32(gid)] = int32(len(obs))
			obs = append(obs, o)
		}
	}
	db, err := openSubWorld(pts, obs, s.dummy, s.opts)
	if err != nil {
		return err
	}
	if len(pts) == 0 {
		l2gP = append([]int32{-1}, l2gP...)
	}
	m.db = db
	m.l2gP = l2gP
	return nil
}

// catchUpMirror replays router log entries [nextLog, upTo), filtered to the
// mirror's block, as one DB.Apply tick. Replayed mutations cannot fail — the
// global commit already validated them on worlds that contain the mirror's
// — so the local IDs the tick will assign are known up front (the next free
// slots), which lets a delete address an object inserted earlier in the same
// tick; the tick's results are then held against that prediction.
func (s *ShardedDB) catchUpMirror(m *unionMirror, upTo int) error {
	if m.nextLog >= upTo {
		return nil
	}
	s.seqMu.RLock()
	log := s.log
	s.seqMu.RUnlock()
	if upTo > len(log) {
		upTo = len(log)
	}
	nextP := int32(len(m.l2gP))
	nextO := int32(len(m.db.current().obstacles))
	var tick []Mutation
	var want []int32 // local ID each member must report
	add := func(mu Mutation, lid int32) { tick, want = append(tick, mu), append(want, lid) }
	for _, e := range log[m.nextLog:upTo] {
		switch e.op {
		case opInsPt:
			if c, r := s.m.cellCoords(e.p); m.span.contains(c, r) {
				add(Mutation{Op: MutInsertPoint, P: e.p}, nextP)
				m.g2lP[e.gid] = nextP
				m.l2gP = append(m.l2gP, e.gid)
				nextP++
			}
		case opDelPt:
			if lid, ok := m.g2lP[e.gid]; ok {
				add(Mutation{Op: MutDeletePoint, ID: lid}, lid)
			}
		case opInsObs:
			if e.r.Intersects(m.rect) {
				add(Mutation{Op: MutInsertObstacle, R: e.r}, nextO)
				m.g2lO[e.gid] = nextO
				nextO++
			}
		case opDelObs:
			if lid, ok := m.g2lO[e.gid]; ok {
				add(Mutation{Op: MutDeleteObstacle, ID: lid}, lid)
			}
		}
	}
	m.nextLog = upTo
	res, err := m.db.Apply(tick)
	if err != nil {
		return err
	}
	for i, mr := range res.Results {
		if mr.Err != nil {
			return fmt.Errorf("connquery: internal: mirror %s replay diverged: %w", tick[i].Op, mr.Err)
		}
		if mr.ID != want[i] {
			return fmt.Errorf("connquery: internal: mirror %s replay diverged: assigned local ID %d, expected %d", tick[i].Op, mr.ID, want[i])
		}
	}
	return nil
}

// cellCoords returns the grid coordinates of p's owning cell.
func (m *shardMap) cellCoords(p Point) (c, r int) {
	i := m.cellOf(p)
	return i % m.cols, i / m.cols
}

// ---------------------------------------------------------------------------
// Answer translation

// translatedAnswer rebuilds an executed answer with local payload PIDs
// mapped to global ones and the epoch restamped to the router revision.
// Payloads are freshly allocated — the originals may live in a shard or
// mirror answer cache and must stay untouched. Metrics pass through
// unchanged: the union world's trace is the global trace.
func translatedAnswer(ans *Answer, req Request, l2g []int32, rev uint64) *Answer {
	return &Answer{
		req:     req,
		epoch:   rev,
		value:   translateValue(ans.value, l2g),
		metrics: ans.metrics,
		items:   ans.items,
		cached:  ans.cached,
	}
}

func mapPID(pid int32, l2g []int32) int32 {
	if pid < 0 {
		return pid // NoOwner
	}
	return l2g[pid]
}

func translateResult(r *Result, l2g []int32) *Result {
	if r == nil {
		return nil
	}
	out := &Result{Q: r.Q, MaxDist: r.MaxDist, Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		t.PID = mapPID(t.PID, l2g)
		out.Tuples[i] = t
	}
	return out
}

// translateValue maps every PID in a payload through l2g, building new
// values throughout. Obstacle IDs never appear in payloads, so point
// translation is the whole job.
func translateValue(v any, l2g []int32) any {
	switch x := v.(type) {
	case *Result:
		return translateResult(x, l2g)
	case *KResult:
		out := &KResult{Q: x.Q, K: x.K, MaxDist: x.MaxDist, Tuples: make([]KTuple, len(x.Tuples))}
		for i, t := range x.Tuples {
			owners := make([]Owner, len(t.Owners))
			for j, o := range t.Owners {
				o.PID = mapPID(o.PID, l2g)
				owners[j] = o
			}
			out.Tuples[i] = KTuple{Span: t.Span, Owners: owners}
		}
		return out
	case []Neighbor:
		out := make([]Neighbor, len(x))
		for i, n := range x {
			n.PID = mapPID(n.PID, l2g)
			out[i] = n
		}
		return out
	case []JoinPair:
		out := make([]JoinPair, len(x))
		for i, p := range x {
			p.PID = mapPID(p.PID, l2g)
			out[i] = p
		}
		return out
	case JoinPair:
		x.PID = mapPID(x.PID, l2g)
		return x
	case *TrajectoryResult:
		out := &TrajectoryResult{Waypoints: x.Waypoints, Legs: make([]*Result, len(x.Legs))}
		for i, leg := range x.Legs {
			out.Legs[i] = translateResult(leg, l2g)
		}
		return out
	case []*Result:
		out := make([]*Result, len(x))
		for i, r := range x {
			out[i] = translateResult(r, l2g)
		}
		return out
	}
	return v // float64 (DistanceRequest): no PIDs
}
