package connquery

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ShardedSnapshot pins one consistent cross-shard cut of a ShardedDB: the
// router revision plus a Snapshot of every shard's MVCC version taken under
// all shard writer locks, so the per-shard versions agree with the router
// log exactly at that revision. While unreleased, the cut stays queryable
// through At() and through AtVersion(rev) on the router.
//
// Like Snapshot, a ShardedSnapshot is cheap (nothing is copied up front;
// union sub-worlds for spanning queries are built lazily and cached per
// cell block), safe for concurrent use, and Release is idempotent.
type ShardedSnapshot struct {
	s        *ShardedDB
	rev      uint64
	logLen   int
	snaps    []*Snapshot // per shard, indexed like s.shards
	released atomic.Bool

	mu            sync.Mutex
	unions        map[cellSpan]*pinnedUnion
	plannerFolded bool // Release folded the unions' planner counters (guarded by mu)
}

// pinnedUnion is a lazily built immutable union world of one cell block at
// the pinned cut, with its local-to-global PID table.
type pinnedUnion struct {
	db   *DB
	l2gP []int32
}

// Snapshot pins the current cross-shard cut and returns its handle. It
// briefly takes every shard's writer lock (in index order, the same order
// writers use), which is what makes the per-shard pins and the router
// revision one consistent cut even under concurrent writers.
func (s *ShardedDB) Snapshot() *ShardedSnapshot {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	s.seqMu.RLock()
	rev := s.rev.Load()
	logLen := len(s.log)
	s.seqMu.RUnlock()
	sp := &ShardedSnapshot{
		s:      s,
		rev:    rev,
		logLen: logLen,
		snaps:  make([]*Snapshot, len(s.shards)),
		unions: make(map[cellSpan]*pinnedUnion),
	}
	for i, sh := range s.shards {
		sp.snaps[i] = sh.db.Snapshot()
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	s.pinMu.Lock()
	set := s.pins[rev]
	if set == nil {
		set = make(map[*ShardedSnapshot]struct{})
		s.pins[rev] = set
	}
	set[sp] = struct{}{}
	s.pinMu.Unlock()
	return sp
}

// Pin pins the current cut and returns it behind the Pin interface; it is
// ShardedDB.Snapshot for callers generic over Database.
func (s *ShardedDB) Pin() Pin { return s.Snapshot() }

// Epoch returns the pinned router revision.
func (sp *ShardedSnapshot) Epoch() uint64 { return sp.rev }

// Released reports whether Release has run.
func (sp *ShardedSnapshot) Released() bool { return sp.released.Load() }

// Release drops the pin: the per-shard snapshots are released and
// AtVersion(rev) on the router stops resolving through this handle.
// Idempotent; queries already running against the cut are unaffected.
func (sp *ShardedSnapshot) Release() {
	if sp.released.Swap(true) {
		return
	}
	for _, snap := range sp.snaps {
		snap.Release()
	}
	s := sp.s
	// Fold the pinned union worlds' planner counters into the router's
	// retired accumulator so ShardedDB.PlannerStats stays cumulative after
	// the pin (and its lazily built sub-worlds) is gone.
	sp.mu.Lock()
	var ps PlannerStats
	for _, u := range sp.unions {
		addPlannerStats(&ps, u.db.PlannerStats())
	}
	sp.plannerFolded = true // a concurrent PlannerStats must not count them again
	sp.mu.Unlock()
	if ps != (PlannerStats{}) {
		s.mirMu.Lock()
		addPlannerStats(&s.retiredPlanner, ps)
		s.mirMu.Unlock()
	}
	s.pinMu.Lock()
	if set, ok := s.pins[sp.rev]; ok {
		delete(set, sp)
		if len(set) == 0 {
			delete(s.pins, sp.rev)
		}
	}
	s.pinMu.Unlock()
}

// At returns the QueryOption pinning a query to this cut, the sharded
// counterpart of AtSnapshot.
func (sp *ShardedSnapshot) At() QueryOption {
	return func(o *execOptions) {
		o.snap, o.bySnap = nil, false
		o.epoch, o.byEpoch = 0, false
		o.ssnap, o.bySSnap = sp, true
	}
}

// unionWorld returns (building and caching on first use) the executable
// union world of a cell block at the pinned cut.
func (sp *ShardedSnapshot) unionWorld(span cellSpan) (*DB, *version, []int32, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	u, ok := sp.unions[span]
	if !ok {
		var err error
		u, err = sp.buildUnion(span)
		if err != nil {
			return nil, nil, nil, err
		}
		sp.unions[span] = u
	}
	return u.db, u.db.current(), u.l2gP, nil
}

// buildUnion bulk-opens the block's union world from the member shards'
// pinned versions: live points keyed by global PID, obstacle replicas
// deduplicated by global OID, both sorted by global ID before the bulk Open
// so local ID order is order-isomorphic to global ID order — the property
// that keeps the engine's (distance, kind, ID) tie-breaks, and with them the
// whole retrieval trace, identical to the single node's.
func (sp *ShardedSnapshot) buildUnion(span cellSpan) (*pinnedUnion, error) {
	s := sp.s
	type gidPt struct {
		gid int32
		p   Point
	}
	var pts []gidPt
	obsByGid := make(map[int32]Rect)
	span.cells(s.m, func(i int) {
		v := sp.snaps[i].v
		s.seqMu.RLock()
		l2gP := s.shards[i].l2gP
		l2gO := s.shards[i].l2gO
		s.seqMu.RUnlock()
		// The l2g prefixes covering the pinned version are immutable
		// (append-only tables, aligned with the shard's append-only object
		// storage), so indexing within len(v.points)/len(v.obstacles) is
		// race-free even as the tables grow past the cut.
		for lid := 0; lid < len(v.points); lid++ {
			gid := l2gP[lid]
			if gid < 0 || v.deletedPts[int32(lid)] {
				continue // bootstrap dummy or tombstoned
			}
			pts = append(pts, gidPt{gid: gid, p: v.points[lid]})
		}
		for lid := 0; lid < len(v.obstacles); lid++ {
			if v.deletedObs[int32(lid)] {
				continue
			}
			obsByGid[l2gO[lid]] = v.obstacles[lid]
		}
	})
	sort.Slice(pts, func(a, b int) bool { return pts[a].gid < pts[b].gid })
	points := make([]Point, len(pts))
	l2g := make([]int32, len(pts))
	for i, gp := range pts {
		points[i] = gp.p
		l2g[i] = gp.gid
	}
	ogids := make([]int32, 0, len(obsByGid))
	for gid := range obsByGid {
		ogids = append(ogids, gid)
	}
	sort.Slice(ogids, func(a, b int) bool { return ogids[a] < ogids[b] })
	obstacles := make([]Rect, len(ogids))
	for i, gid := range ogids {
		obstacles[i] = obsByGid[gid]
	}
	db, err := openSubWorld(points, obstacles, nil, nil, s.dummy, s.cfg)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		l2g = append([]int32{-1}, l2g...)
	}
	return &pinnedUnion{db: db, l2gP: l2g}, nil
}
