package connquery

import (
	"errors"
	"fmt"
	"os"

	"connquery/internal/rtree"
	"connquery/internal/stats"
	"connquery/internal/wal"
)

// The durable tier: a write-ahead log on the commit path plus a persistent
// epoch store (checkpoints of the full ID-preserving storage image), giving
// the MVCC engine crash recovery with a crisp contract — the paper's query
// answers are a pure function of (dataset, epoch), so a recovered instance
// must answer bit-identically at the recovered epoch, payload and
// NPE/NOE/|SVG|/Reach metrics included.
//
// Write path. Under the writer lock, every tick appends one CRC-framed
// record per applied primitive to the WAL — and, in the default strict
// mode, fsyncs them — BEFORE the commit (apply.go) swaps the version
// pointer: nothing becomes visible to queries that recovery could not
// reproduce. WithGroupCommit relaxes the fsync into a batched background
// sync, trading a bounded tail of recent mutations for fleet-scale update
// throughput; the on-disk log is always a prefix of the committed stream,
// so recovery still lands on a consistent earlier epoch.
//
// Checkpoints. Checkpoint (and the automatic WithCheckpointEvery interval)
// syncs the log, atomically writes the current version's full storage image
// stamped with its epoch, and truncates the log. Recovery is therefore
// always one checkpoint load plus one sequential scan of a short log tail.
//
// Failure model is fail-stop: a WAL or checkpoint I/O error latches on the
// handle, the failed mutation does not publish, and every later mutation
// refuses (inserts return the latched error, deletes report false); reads
// keep serving the last published version.

// RecoveryStats reports what a durable open actually did, with the replay
// path's REAL file I/O counted through the same page-fault accounting the
// query engine uses (a page is 4 KB of checkpoint or WAL file, and every
// page read is a fault).
type RecoveryStats struct {
	Epoch           uint64 // epoch the instance recovered to
	CheckpointBytes int64  // bytes of the checkpoint image read
	WALBytes        int64  // bytes of WAL segments scanned
	WALRecords      int    // records replayed through the mutation path
	TornBytes       int64  // trailing WAL bytes discarded as torn
	PagesRead       int64  // page faults charged for recovery file reads
}

// durableState is a DB's attachment to its directory: the WAL writer, the
// checkpoint cadence, the recovery report, and the latched failure state.
// All fields are guarded by the owning DB's writer lock (db.mu).
type durableState struct {
	dir    string
	w      *wal.Writer
	since  int // records logged since the last checkpoint
	every  int // auto-checkpoint interval; 0 = manual only
	err    error
	closed bool
	rec    RecoveryStats
}

var errNotDurable = errors.New("connquery: not a durable database (use OpenDurable)")

func walOptions(cfg config) wal.Options {
	return wal.Options{SyncWindow: cfg.groupWindow}
}

func resolveCkptEvery(n int) int {
	if n == 0 {
		return DefaultCheckpointEvery
	}
	if n < 0 {
		return 0
	}
	return n
}

// OpenDurable opens (or creates) a durable database in dir.
//
// When dir holds durable state, the instance cold-starts from the latest
// checkpoint plus a WAL replay through DB.Apply, the one write path — so
// the R-trees, flat-geometry kernel and answer-affecting state rebuild
// exactly — and resumes at the recovered epoch. When dir is empty, the
// initial world must come from WithBootstrapData; it is built exactly as
// Open would build it (same validation, same IDs, epoch 1) and checkpointed
// before the call returns. All regular Options apply; WithGroupCommit and
// WithCheckpointEvery tune the durability itself. Close the handle to
// checkpoint and release the directory.
func OpenDurable(dir string, opts ...Option) (*DB, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("connquery: durable: %w", err)
	}
	pc := &stats.PageCounter{}
	ck, ckBytes, err := loadLatestCheckpoint(dir, pc.RecordAccess)
	if err != nil {
		return nil, fmt.Errorf("connquery: durable: %w", err)
	}
	every := resolveCkptEvery(cfg.ckptEvery)

	if ck == nil {
		if cfg.boot == nil {
			return nil, fmt.Errorf("connquery: durable: %s holds no durable state and no WithBootstrapData was given", dir)
		}
		db, err := Open(cfg.boot.points, cfg.boot.obstacles, opts...)
		if err != nil {
			return nil, err
		}
		if err := makeDurable(db, dir, cfg, every); err != nil {
			return nil, err
		}
		return db, nil
	}
	if cfg.boot != nil {
		return nil, fmt.Errorf("connquery: durable: WithBootstrapData given but %s already holds state at epoch %d", dir, ck.epoch)
	}

	db, err := openAt(ck, cfg)
	if err != nil {
		return nil, err
	}
	scan, err := wal.ScanDir(dir, rtree.DefaultPageSize, pc.RecordAccess)
	if err != nil {
		return nil, fmt.Errorf("connquery: durable: %w", err)
	}
	applied, err := replayRecords(db, scan.Records)
	if err != nil {
		return nil, err
	}
	rec := RecoveryStats{
		Epoch:           db.Version(),
		CheckpointBytes: ckBytes,
		WALBytes:        scan.Bytes,
		WALRecords:      len(applied),
		TornBytes:       scan.TornBytes,
		PagesRead:       pc.Faults(),
	}
	if err := attachDurable(db, dir, cfg, every, applied, rec); err != nil {
		return nil, err
	}
	return db, nil
}

// makeDurable attaches a freshly built in-memory DB to an empty directory:
// initial checkpoint, clean log, live writer.
func makeDurable(db *DB, dir string, cfg config, every int) error {
	if err := writeCheckpointFile(dir, db.current()); err != nil {
		return err
	}
	return attachDurable(db, dir, cfg, every, nil, RecoveryStats{Epoch: db.Version()})
}

// attachDurable compacts the directory's log to exactly the records the DB
// replayed (dropping torn tails and anything beyond the recovered cut, so
// future scans start clean), opens the writer for the next epoch, and arms
// the durable state. From here on every mutation logs before it publishes.
func attachDurable(db *DB, dir string, cfg config, every int, applied []wal.Record, rec RecoveryStats) error {
	if err := wal.Rewrite(dir, applied); err != nil {
		return fmt.Errorf("connquery: durable: %w", err)
	}
	w, err := wal.Create(dir, db.Version()+1, walOptions(cfg))
	if err != nil {
		return fmt.Errorf("connquery: durable: %w", err)
	}
	db.dur = &durableState{dir: dir, w: w, since: len(applied), every: every, rec: rec}
	return nil
}

// replayRecords applies a scanned record stream to db as one DB.Apply tick
// and cross-checks every member against what the log promised. Records at
// or below the current epoch are duplicates a crashed log compaction can
// leave behind and are skipped; an epoch gap or an application verdict that
// disagrees with the log (failed member, wrong assigned ID, wrong final
// epoch) is corruption and aborts the open — a durable store must never
// guess. The tick is bounded by the checkpoint interval, which bounds the
// log tail. Returns the records actually applied.
func replayRecords(db *DB, recs []wal.Record) ([]wal.Record, error) {
	cur := db.Version()
	applied := make([]wal.Record, 0, len(recs))
	tick := make([]Mutation, 0, len(recs))
	for _, r := range recs {
		if r.Epoch <= cur {
			continue
		}
		if r.Epoch != cur+1 {
			return nil, fmt.Errorf("connquery: wal replay: epoch gap: log jumps from %d to %d", cur, r.Epoch)
		}
		m, err := recordMutation(r)
		if err != nil {
			return nil, err
		}
		cur = r.Epoch
		applied = append(applied, r)
		tick = append(tick, m)
	}
	res, err := db.Apply(tick)
	if err != nil {
		return nil, err
	}
	for i, mr := range res.Results {
		if mr.Err != nil {
			return nil, fmt.Errorf("connquery: wal replay: %s at epoch %d: %w", tick[i].Op, applied[i].Epoch, mr.Err)
		}
		if mr.ID != applied[i].ID {
			return nil, fmt.Errorf("connquery: wal replay: %s assigned ID %d, log recorded %d", tick[i].Op, mr.ID, applied[i].ID)
		}
	}
	if got := db.Version(); got != cur {
		return nil, fmt.Errorf("connquery: wal replay: epoch %d after applying the log up to epoch %d", got, cur)
	}
	return applied, nil
}

// recordMutation is the tick member that re-executes one WAL record.
func recordMutation(r wal.Record) (Mutation, error) {
	switch r.Op {
	case wal.OpInsertPoint:
		return Mutation{Op: MutInsertPoint, P: Pt(r.Coords[0], r.Coords[1])}, nil
	case wal.OpDeletePoint:
		return Mutation{Op: MutDeletePoint, ID: r.ID}, nil
	case wal.OpInsertObstacle:
		return Mutation{Op: MutInsertObstacle, R: Rect{MinX: r.Coords[0], MinY: r.Coords[1], MaxX: r.Coords[2], MaxY: r.Coords[3]}}, nil
	case wal.OpDeleteObstacle:
		return Mutation{Op: MutDeleteObstacle, ID: r.ID}, nil
	}
	return Mutation{}, fmt.Errorf("connquery: wal replay: unknown op %d", r.Op)
}

// writableLocked is the mutation entry gate. Caller holds db.mu.
func (db *DB) writableLocked() error {
	d := db.dur
	if d == nil {
		return nil
	}
	if d.closed {
		return errors.New("connquery: durable database is closed")
	}
	return d.err
}

// syncLocked forces the log tail to disk, latching on failure — the
// WithSyncAck half of a commit: a mutation acked to the caller is on disk.
// Caller holds db.mu.
func (d *durableState) syncLocked() error {
	if d.err != nil {
		return d.err
	}
	if err := d.w.Sync(); err != nil {
		d.err = fmt.Errorf("connquery: durable: %w", err)
		return d.err
	}
	return nil
}

// maybeCheckpointLocked runs the automatic checkpoint when the interval is
// armed and due. Caller holds db.mu; the published version is already
// live, so a checkpoint failure only latches the writer — readers are
// unaffected.
func (db *DB) maybeCheckpointLocked(v *version) {
	d := db.dur
	if d.every > 0 && d.since >= d.every && d.err == nil {
		db.checkpointLocked(v) //nolint:errcheck // latched in d.err
	}
}

// checkpointLocked makes v durable as a checkpoint and truncates the WAL:
// sync the log, write the image atomically, then cut the segments — in
// that order, so every crash window leaves either the old checkpoint plus
// a complete log, or the new checkpoint plus a log whose leftover records
// replay idempotently. Caller holds db.mu.
func (db *DB) checkpointLocked(v *version) error {
	d := db.dur
	if d.err != nil {
		return d.err
	}
	if err := d.w.Sync(); err != nil {
		d.err = fmt.Errorf("connquery: durable: %w", err)
		return d.err
	}
	if err := writeCheckpointFile(d.dir, v); err != nil {
		d.err = err
		return d.err
	}
	if err := d.w.Truncate(); err != nil {
		d.err = fmt.Errorf("connquery: durable: %w", err)
		return d.err
	}
	d.since = 0
	return nil
}

// syncWAL forces the handle's log tail to disk without checkpointing. The
// sharded checkpoint protocol uses it to pin every shard's log before the
// router image is written. No-op for in-memory handles.
func (db *DB) syncWAL() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	d := db.dur
	if d == nil {
		return nil
	}
	return d.syncLocked()
}

// Checkpoint writes a durable checkpoint of the current version and
// truncates the WAL. It serializes with mutations on the writer lock.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dur == nil {
		return errNotDurable
	}
	if db.dur.closed {
		return errors.New("connquery: durable database is closed")
	}
	return db.checkpointLocked(db.current())
}

// Close checkpoints the current version and releases the durable
// directory. Closing an in-memory DB is a no-op, so callers can close a
// Database handle uniformly. Queries on the handle keep working after
// Close (they are pure reads of the published version); only mutations
// refuse.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	d := db.dur
	if d == nil || d.closed {
		return nil
	}
	d.closed = true
	var firstErr error
	if d.err == nil {
		firstErr = db.checkpointLocked(db.current())
	}
	if err := d.w.Close(); firstErr == nil && err != nil {
		firstErr = fmt.Errorf("connquery: durable: %w", err)
	}
	return firstErr
}

// RecoveryStats reports what this handle's durable open did. Zero for
// in-memory handles.
func (db *DB) RecoveryStats() RecoveryStats {
	if db.dur == nil {
		return RecoveryStats{}
	}
	return db.dur.rec
}
