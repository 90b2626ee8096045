package connquery

import (
	"fmt"

	"connquery/internal/wal"
)

// Sharded durability: a ShardedDB stores exactly what a DB stores
// (durable.go) — one internal/wal log and CONNQv2 checkpoints in the data
// directory itself — because a sharded database is a single-node database
// under a different execution strategy. The router's global IDs are the
// single-node PIDs/OIDs and its revision is the single-node epoch, so the
// commit sequencer's entry is a single-node WAL record as it stands. Shard
// units are in-memory DBs; nothing is logged per shard.
//
// Write path. A mutation applies to its target shards in memory first, then
// enters the commit sequencer, where its one WAL record is appended — and
// fsynced in strict mode or under WithSyncAck — before the revision
// advances. The log is therefore always a prefix of the revision stream.
//
// Checkpoints hold every shard lock and the sequencer lock, so the image is
// a quiesced cut: the global arrays at revision R (points from p2s,
// obstacles from o2s) with the tombstones read from the shards — the very
// version a single node with the same history holds. Then the one
// checkpoint routine of durable.go syncs, writes the image and truncates.
//
// Recovery is single-node recovery with the router as target: load the
// newest checkpoint, partition its arrays onto a grid over its points
// exactly as OpenSharded partitions a fresh world (dead objects land as
// tombstones, so local order stays global order), replay the log tail
// through ShardedDB.Apply, and attach the writer. Nothing in the directory
// names a shard count, so it reopens under any count or as a single node,
// answering bit-identically at the recovered revision.

// entryRecord encodes a committed log entry as its WAL record: the global
// ID, the router revision in the epoch slot, and the geometry — the record
// a single node logs for the same mutation.
func entryRecord(e changeEntry, rev uint64) wal.Record {
	r := wal.Record{ID: e.gid, Epoch: rev}
	switch e.op {
	case opInsPt:
		r.Op = wal.OpInsertPoint
		r.Coords = [4]float64{e.p.X, e.p.Y}
	case opDelPt:
		r.Op = wal.OpDeletePoint
		r.Coords = [4]float64{e.p.X, e.p.Y}
	case opInsObs:
		r.Op = wal.OpInsertObstacle
		r.Coords = [4]float64{e.r.MinX, e.r.MinY, e.r.MaxX, e.r.MaxY}
	case opDelObs:
		r.Op = wal.OpDeleteObstacle
		r.Coords = [4]float64{e.r.MinX, e.r.MinY, e.r.MaxX, e.r.MaxY}
	}
	return r
}

// OpenDurableSharded opens (or creates) a durable sharded database in dir.
//
// When dir holds durable state — written by this function under any shard
// count, or by OpenDurable — the router recovers from the latest checkpoint
// plus a WAL replay and answers bit-identically to the pre-crash instance
// at the recovered revision. When dir is empty, the initial world comes
// from WithBootstrapData, built exactly as OpenSharded would build it. All
// regular Options apply; WithGroupCommit and WithCheckpointEvery tune
// durability (the checkpoint interval counts router-level mutations).
func OpenDurableSharded(dir string, shards int, opts ...Option) (*ShardedDB, error) {
	if shards < 1 {
		return nil, fmt.Errorf("connquery: OpenDurableSharded needs at least 1 shard, got %d", shards)
	}
	return openDurable(dir, opts,
		func(points []Point, obstacles []Rect) (*ShardedDB, error) {
			return OpenSharded(points, obstacles, shards, opts...)
		},
		func(c *ckptData, cfg config) (*ShardedDB, error) { return partition(c, shards, cfg) })
}

func (s *ShardedDB) setDurable(d *durableState) { s.dur = d }

// image is the storage a checkpoint of the router stores: the global arrays
// in ID order with the tombstones read from the shards (a replicated
// obstacle's replicas tombstone in lockstep, so its first replica speaks
// for all). Caller holds every shard lock and seqMu, or has the handle to
// itself, so the cut is quiesced.
func (s *ShardedDB) image() *version {
	cur := make([]*version, len(s.shards))
	for i, sh := range s.shards {
		cur[i] = sh.db.current()
	}
	v := &version{
		epoch:      s.rev.Load(),
		points:     make([]Point, len(s.p2s)),
		obstacles:  make([]Rect, len(s.o2s)),
		deletedPts: make(map[int32]bool),
		deletedObs: make(map[int32]bool),
	}
	for gid, loc := range s.p2s {
		v.points[gid] = loc.p
		if cur[loc.shard].deletedPts[loc.lid] {
			v.deletedPts[int32(gid)] = true
		}
	}
	for gid, loc := range s.o2s {
		v.obstacles[gid] = loc.r
		if rep := loc.reps[0]; cur[rep.shard].deletedObs[rep.lid] {
			v.deletedObs[int32(gid)] = true
		}
	}
	return v
}

// durWritable is the mutation entry gate of the sharded tier.
func (s *ShardedDB) durWritable() error {
	if s.dur == nil {
		return nil
	}
	s.seqMu.RLock()
	defer s.seqMu.RUnlock()
	return s.dur.writable()
}

// maybeCheckpointDurable triggers the automatic checkpoint when due. Called
// at mutation entry, before any shard lock is held (the checkpoint itself
// takes every shard lock); the gate keeps concurrent mutations from piling
// up behind a second checkpoint.
func (s *ShardedDB) maybeCheckpointDurable() {
	if s.dur == nil {
		return
	}
	s.seqMu.RLock()
	due := s.dur.due()
	s.seqMu.RUnlock()
	if !due || !s.ckptGate.CompareAndSwap(false, true) {
		return
	}
	defer s.ckptGate.Store(false)
	s.Checkpoint() //nolint:errcheck // latched in d.err
}

// quiesce takes every shard lock in ascending index order (the global lock
// order), then seqMu, and returns the matching unlock.
func (s *ShardedDB) quiesce() (unlock func()) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	s.seqMu.Lock()
	return func() {
		s.seqMu.Unlock()
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}
}

// Checkpoint quiesces the router and makes the current revision durable as
// a checkpoint, truncating the WAL. It serializes with mutations on the
// shard locks.
func (s *ShardedDB) Checkpoint() error {
	if s.dur == nil {
		return errNotDurable
	}
	defer s.quiesce()()
	return s.dur.checkpoint(s.image)
}

// Close checkpoints the current revision and releases the durable
// directory. Closing an in-memory ShardedDB is a no-op. Queries keep
// working after Close; only mutations refuse.
func (s *ShardedDB) Close() error {
	if s.dur == nil {
		return nil
	}
	defer s.quiesce()()
	return s.dur.close(s.image)
}

// RecoveryStats reports what this handle's durable open did. Zero for
// in-memory handles.
func (s *ShardedDB) RecoveryStats() RecoveryStats {
	if s.dur == nil {
		return RecoveryStats{}
	}
	return s.dur.rec
}
