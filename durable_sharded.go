package connquery

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"connquery/internal/geom"
	"connquery/internal/rtree"
	"connquery/internal/stats"
	"connquery/internal/wal"
)

// Sharded durability: each shard unit keeps its own single-node durable
// directory (checkpoint + WAL, exactly the OpenDurable machinery with
// automatic checkpoints disabled), and the router adds a sequencer log — one
// record per committed mutation, carrying the global ID and the router
// revision — plus a router checkpoint holding the cross-shard state the
// shard directories cannot reproduce alone: the grid geometry, the
// local-to-global ID tables, and the revision.
//
// Layout under the data directory:
//
//	router/       router checkpoints (ckpt-%016x by revision)
//	seq/          sequencer WAL segments
//	shard-%03d/   one OpenDurable-style directory per shard unit
//
// Write path. A mutation applies to its target shards first (each shard's
// own WAL logs the local record before the shard publishes, as on any
// durable DB), then enters the commit sequencer, where the sequencer record
// is appended — and in strict mode fsynced — before the revision advances.
// The sequencer log is therefore always a prefix of the committed revision
// stream, and a shard-log record without a matching sequencer record is an
// unsequenced leftover of a crash.
//
// Checkpoint protocol (all shard locks + the sequencer lock held, so the
// image is a quiesced cut): sync every shard WAL and the sequencer log;
// write the router checkpoint; checkpoint every shard; truncate the
// sequencer log. The router image goes first so that whatever prefix of the
// shard checkpoints a crash leaves behind, recovery can always rebuild the
// router cut from shard checkpoints + shard logs (the pre-write sync
// guarantees the logs reach the router cut).
//
// Recovery walks back to the newest router checkpoint's revision R, then
// extends it entry by entry along the sequencer tail: an entry is accepted
// only when EVERY target shard's log holds the matching next record (same
// op, same local ID, consecutive local epoch). The first entry that fails
// the test is the consistent cut — a mutation that did not durably reach all
// its replicas is dropped everywhere, so replicated obstacles never diverge.
// Accepted entries replay through the shard mutation path and rebuild the
// ID tables and the in-memory log synthetically; every log is then rewritten
// to exactly the accepted state, and the recovered twin is order-isomorphic
// to the pre-crash instance: answers and the machine-independent metrics are
// bit-identical at the recovered revision.

const (
	routerDirName = "router"
	seqDirName    = "seq"
)

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// Page-ID namespaces for the shared recovery buffer: recovery reads many
// files across many directories, and the per-file page IDs (segment<<32 |
// page, or ckptPageBase | page) would collide across directories. The bases
// sit above every per-file ID's bit range.
func shardPageNS(i int) int64 { return int64(i+1) << 52 }

const (
	seqPageNS    = int64(1) << 61
	routerPageNS = int64(1) << 62
)

func pageNS(base int64, onPage func(int64)) func(int64) {
	if onPage == nil {
		return nil
	}
	return func(id int64) { onPage(base | id) }
}

// shardedDurable is the router's durable attachment: the sequencer writer,
// the checkpoint cadence and the latched failure state. since, err and
// closed are guarded by ShardedDB.seqMu; ckptGate serializes automatic
// checkpoints without holding any lock.
type shardedDurable struct {
	dir      string
	seq      *wal.Writer
	since    int // sequencer records since the last checkpoint
	every    int // auto-checkpoint interval; 0 = manual only
	err      error
	closed   bool
	ckptGate atomic.Bool
	rec      RecoveryStats
}

// entryRecord encodes a committed log entry as its sequencer WAL record:
// the global ID, the router revision in the epoch slot, and the geometry
// (recovery re-derives the target shards from it).
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

// recordEntry is the inverse of entryRecord (the revision stays in the WAL
// record; the log entry does not store it).
func recordEntry(r wal.Record) (changeEntry, error) {
	e := changeEntry{gid: r.ID}
	switch r.Op {
	case wal.OpInsertPoint:
		e.op = opInsPt
		e.p = Pt(r.Coords[0], r.Coords[1])
	case wal.OpDeletePoint:
		e.op = opDelPt
		e.p = Pt(r.Coords[0], r.Coords[1])
	case wal.OpInsertObstacle:
		e.op = opInsObs
		e.r = Rect{MinX: r.Coords[0], MinY: r.Coords[1], MaxX: r.Coords[2], MaxY: r.Coords[3]}
	case wal.OpDeleteObstacle:
		e.op = opDelObs
		e.r = Rect{MinX: r.Coords[0], MinY: r.Coords[1], MaxX: r.Coords[2], MaxY: r.Coords[3]}
	default:
		return e, fmt.Errorf("connquery: durable: sequencer record with unknown op %d", r.Op)
	}
	return e, nil
}

// Router checkpoint format: the cross-shard image at one quiesced revision.
//
//	magic   [8]byte  "CONNRv1\n"
//	rev     uint64
//	cols    uint32
//	rows    uint32
//	world   4 * float64 (grid extent)
//	dummy   2 * float64 (bootstrap point for empty shards/mirrors)
//	lenP2S  uint64   global points registered at the cut (dead included)
//	lenO2S  uint64   global obstacles registered at the cut
//	nShards uint32
//	per shard:
//	  epoch uint64   the shard DB's MVCC epoch at the cut
//	  nP    uint64 + nP * int32 (l2gP; -1 marks a bootstrap dummy slot)
//	  nO    uint64 + nO * int32 (l2gO)
//	crc     uint32   CRC-32C of everything above
var routerMagic = [8]byte{'C', 'O', 'N', 'N', 'R', 'v', '1', '\n'}

// routerCkpt is a decoded router checkpoint.
type routerCkpt struct {
	rev        uint64
	cols, rows int
	world      geom.Rect
	dummy      Point
	epochs     []uint64
	l2gP       [][]int32
	l2gO       [][]int32
	lenP2S     int
	lenO2S     int
}

// routerImage captures the router checkpoint of the current state. Caller
// holds every shard lock and seqMu, so the cut is quiesced.
func (s *ShardedDB) routerImage() *routerCkpt {
	rc := &routerCkpt{
		rev:    s.rev.Load(),
		cols:   s.m.cols,
		rows:   s.m.rows,
		world:  s.m.world,
		dummy:  s.dummy,
		lenP2S: len(s.p2s),
		lenO2S: len(s.o2s),
	}
	for _, sh := range s.shards {
		rc.epochs = append(rc.epochs, sh.db.Version())
		rc.l2gP = append(rc.l2gP, append([]int32(nil), sh.l2gP...))
		rc.l2gO = append(rc.l2gO, append([]int32(nil), sh.l2gO...))
	}
	return rc
}

func writeRouterCkpt(w io.Writer, rc *routerCkpt) error {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if _, err := bw.Write(routerMagic[:]); err != nil {
		return err
	}
	writeU64 := func(x uint64) error { return binary.Write(bw, binary.LittleEndian, x) }
	writeU32 := func(x uint32) error { return binary.Write(bw, binary.LittleEndian, x) }
	writeF64 := func(x float64) error {
		return binary.Write(bw, binary.LittleEndian, math.Float64bits(x))
	}
	writeIDs := func(ids []int32) error {
		if err := writeU64(uint64(len(ids))); err != nil {
			return err
		}
		for _, id := range ids {
			if err := writeU32(uint32(id)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeU64(rc.rev); err != nil {
		return err
	}
	if err := writeU32(uint32(rc.cols)); err != nil {
		return err
	}
	if err := writeU32(uint32(rc.rows)); err != nil {
		return err
	}
	for _, x := range [4]float64{rc.world.MinX, rc.world.MinY, rc.world.MaxX, rc.world.MaxY} {
		if err := writeF64(x); err != nil {
			return err
		}
	}
	if err := writeF64(rc.dummy.X); err != nil {
		return err
	}
	if err := writeF64(rc.dummy.Y); err != nil {
		return err
	}
	if err := writeU64(uint64(rc.lenP2S)); err != nil {
		return err
	}
	if err := writeU64(uint64(rc.lenO2S)); err != nil {
		return err
	}
	if err := writeU32(uint32(len(rc.epochs))); err != nil {
		return err
	}
	for i := range rc.epochs {
		if err := writeU64(rc.epochs[i]); err != nil {
			return err
		}
		if err := writeIDs(rc.l2gP[i]); err != nil {
			return err
		}
		if err := writeIDs(rc.l2gO[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, h.Sum32())
}

// parseRouterCkpt decodes a router checkpoint image, CRC first.
func parseRouterCkpt(data []byte) (*routerCkpt, error) {
	if len(data) < len(routerMagic)+8+4 {
		return nil, fmt.Errorf("connquery: router checkpoint: truncated file (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); got != want {
		return nil, fmt.Errorf("connquery: router checkpoint: CRC mismatch (file %08x, computed %08x)", got, want)
	}
	if [8]byte(body[:8]) != routerMagic {
		return nil, fmt.Errorf("connquery: router checkpoint: bad magic %q", body[:8])
	}
	off := 8
	readU64 := func() (uint64, error) {
		if off+8 > len(body) {
			return 0, io.ErrUnexpectedEOF
		}
		x := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return x, nil
	}
	readU32 := func() (uint32, error) {
		if off+4 > len(body) {
			return 0, io.ErrUnexpectedEOF
		}
		x := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return x, nil
	}
	readF64 := func() (float64, error) {
		bits, err := readU64()
		if err != nil {
			return 0, err
		}
		x := math.Float64frombits(bits)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("non-finite coordinate")
		}
		return x, nil
	}
	const maxObjects = 1 << 28
	readIDs := func(min, bound int64) ([]int32, error) {
		n, err := readU64()
		if err != nil {
			return nil, err
		}
		if n > maxObjects {
			return nil, fmt.Errorf("implausible table length %d", n)
		}
		ids := make([]int32, n)
		for i := range ids {
			u, err := readU32()
			if err != nil {
				return nil, err
			}
			id := int32(u)
			if int64(id) < min || int64(id) >= bound {
				return nil, fmt.Errorf("table entry %d out of range [%d,%d)", id, min, bound)
			}
			ids[i] = id
		}
		return ids, nil
	}

	rc := &routerCkpt{}
	rev, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("connquery: router checkpoint: revision: %w", err)
	}
	if rev == 0 {
		return nil, fmt.Errorf("connquery: router checkpoint: zero revision")
	}
	rc.rev = rev
	cols, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("connquery: router checkpoint: grid: %w", err)
	}
	rows, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("connquery: router checkpoint: grid: %w", err)
	}
	if cols == 0 || rows == 0 || uint64(cols)*uint64(rows) > 1<<20 {
		return nil, fmt.Errorf("connquery: router checkpoint: implausible grid %dx%d", cols, rows)
	}
	rc.cols, rc.rows = int(cols), int(rows)
	var vals [4]float64
	for j := range vals {
		if vals[j], err = readF64(); err != nil {
			return nil, fmt.Errorf("connquery: router checkpoint: world: %w", err)
		}
	}
	rc.world = geom.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	if rc.dummy.X, err = readF64(); err != nil {
		return nil, fmt.Errorf("connquery: router checkpoint: dummy: %w", err)
	}
	if rc.dummy.Y, err = readF64(); err != nil {
		return nil, fmt.Errorf("connquery: router checkpoint: dummy: %w", err)
	}
	lenP, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("connquery: router checkpoint: point registry: %w", err)
	}
	lenO, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("connquery: router checkpoint: obstacle registry: %w", err)
	}
	if lenP > maxObjects || lenO > maxObjects {
		return nil, fmt.Errorf("connquery: router checkpoint: implausible registry sizes %d/%d", lenP, lenO)
	}
	rc.lenP2S, rc.lenO2S = int(lenP), int(lenO)
	nShards, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("connquery: router checkpoint: shard count: %w", err)
	}
	if int(nShards) != rc.cols*rc.rows {
		return nil, fmt.Errorf("connquery: router checkpoint: %d shards for a %dx%d grid", nShards, rc.cols, rc.rows)
	}
	for i := 0; i < int(nShards); i++ {
		epoch, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("connquery: router checkpoint: shard %d epoch: %w", i, err)
		}
		if epoch == 0 {
			return nil, fmt.Errorf("connquery: router checkpoint: shard %d has zero epoch", i)
		}
		l2gP, err := readIDs(-1, int64(rc.lenP2S))
		if err != nil {
			return nil, fmt.Errorf("connquery: router checkpoint: shard %d point table: %w", i, err)
		}
		l2gO, err := readIDs(0, int64(rc.lenO2S))
		if err != nil {
			return nil, fmt.Errorf("connquery: router checkpoint: shard %d obstacle table: %w", i, err)
		}
		rc.epochs = append(rc.epochs, epoch)
		rc.l2gP = append(rc.l2gP, l2gP)
		rc.l2gO = append(rc.l2gO, l2gO)
	}
	if off != len(body) {
		return nil, fmt.Errorf("connquery: router checkpoint: %d trailing bytes", len(body)-off)
	}
	return rc, nil
}

// writeRouterCkptFile persists rc atomically in the router directory and
// removes older router checkpoints once the new one is durable.
func writeRouterCkptFile(routerDir string, rc *routerCkpt) error {
	path := filepath.Join(routerDir, checkpointName(rc.rev))
	if err := atomicWriteFile(path, func(w io.Writer) error { return writeRouterCkpt(w, rc) }); err != nil {
		return fmt.Errorf("connquery: router checkpoint: %w", err)
	}
	names, err := listCheckpoints(routerDir)
	if err != nil {
		return fmt.Errorf("connquery: router checkpoint: %w", err)
	}
	for _, name := range names {
		if name != checkpointName(rc.rev) {
			if err := os.Remove(filepath.Join(routerDir, name)); err != nil {
				return fmt.Errorf("connquery: router checkpoint: %w", err)
			}
		}
	}
	return nil
}

// loadRouterCkpt reads and parses the newest router checkpoint, charging
// recovery page accounting. Nil data (no error) when none exists.
func loadRouterCkpt(routerDir string, onPage func(int64)) (*routerCkpt, int64, error) {
	names, err := listCheckpoints(routerDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	if len(names) == 0 {
		return nil, 0, nil
	}
	path := filepath.Join(routerDir, names[len(names)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	chargePages(data, onPage)
	rc, err := parseRouterCkpt(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return rc, int64(len(data)), nil
}

// OpenDurableSharded opens (or creates) a durable sharded database in dir.
//
// When dir holds durable state, the instance recovers each shard from its
// own checkpoint-plus-log, then extends the router checkpoint along the
// sequencer log to the latest revision every mutation durably reached — the
// recovered twin answers bit-identically to the pre-crash instance at that
// revision. The shard count must match the stored grid. When dir is empty,
// the initial world comes from WithBootstrapData, built exactly as
// OpenSharded would build it. All regular Options apply; WithGroupCommit
// and WithCheckpointEvery tune durability (the checkpoint interval counts
// router-level mutations).
func OpenDurableSharded(dir string, shards int, opts ...Option) (*ShardedDB, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("connquery: durable: %w", err)
	}
	pc := &stats.PageCounter{}
	routerDir := filepath.Join(dir, routerDirName)
	rc, rcBytes, err := loadRouterCkpt(routerDir, pageNS(routerPageNS, pc.RecordAccess))
	if err != nil {
		return nil, fmt.Errorf("connquery: durable: %w", err)
	}
	every := resolveCkptEvery(cfg.ckptEvery)

	if rc == nil {
		if cfg.boot == nil {
			return nil, fmt.Errorf("connquery: durable: %s holds no durable state and no WithBootstrapData was given", dir)
		}
		s, err := OpenSharded(cfg.boot.points, cfg.boot.obstacles, shards, opts...)
		if err != nil {
			return nil, err
		}
		if err := s.makeDurableSharded(dir, cfg, every); err != nil {
			return nil, err
		}
		return s, nil
	}
	if cfg.boot != nil {
		return nil, fmt.Errorf("connquery: durable: WithBootstrapData given but %s already holds state at revision %d", dir, rc.rev)
	}
	if shards != rc.cols*rc.rows {
		return nil, fmt.Errorf("connquery: durable: %s was created with %d shards (%dx%d grid), cannot open with %d — re-sharding an existing store is not supported",
			dir, rc.cols*rc.rows, rc.cols, rc.rows, shards)
	}
	return recoverSharded(dir, rc, rcBytes, cfg, every, opts, pc)
}

// makeDurableSharded attaches a freshly built ShardedDB to an empty
// directory. The router checkpoint is written LAST: HasDurableState keys on
// it, so a crash mid-bootstrap leaves a directory that simply bootstraps
// again (every earlier artifact is rewritten deterministically).
func (s *ShardedDB) makeDurableSharded(dir string, cfg config, every int) error {
	for i, sh := range s.shards {
		sd := filepath.Join(dir, shardDirName(i))
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return fmt.Errorf("connquery: durable: %w", err)
		}
		if err := makeDurable(sh.db, sd, cfg, 0); err != nil {
			return fmt.Errorf("connquery: durable: shard %d: %w", i, err)
		}
	}
	seqDir := filepath.Join(dir, seqDirName)
	if err := os.MkdirAll(seqDir, 0o755); err != nil {
		return fmt.Errorf("connquery: durable: %w", err)
	}
	routerDir := filepath.Join(dir, routerDirName)
	if err := os.MkdirAll(routerDir, 0o755); err != nil {
		return fmt.Errorf("connquery: durable: %w", err)
	}
	if err := writeRouterCkptFile(routerDir, s.routerImage()); err != nil {
		return err
	}
	w, err := wal.Create(seqDir, s.rev.Load()+1, walOptions(cfg))
	if err != nil {
		return fmt.Errorf("connquery: durable: %w", err)
	}
	s.dur = &shardedDurable{dir: dir, seq: w, every: every, rec: RecoveryStats{Epoch: s.rev.Load()}}
	return nil
}

// shardScan is one shard's recovery cursor: the scanned log and how far the
// consistent-cut walk has consumed it.
type shardScan struct {
	recs    []wal.Record // scanned shard log, ascending epochs
	next    int          // cursor: first record not yet consumed
	applied []wal.Record // records replayed into the shard DB, for the rewrite
}

// recoverSharded rebuilds a ShardedDB from a router checkpoint plus the
// shard and sequencer logs. See the package comment at the top of this file
// for the protocol.
func recoverSharded(dir string, rc *routerCkpt, rcBytes int64, cfg config, every int, opts []Option, pc *stats.PageCounter) (*ShardedDB, error) {
	n := rc.cols * rc.rows
	s := &ShardedDB{
		m:        newShardMap(rc.cols, rc.rows, rc.world),
		opts:     append([]Option(nil), opts...),
		cfg:      cfg,
		mirrors:  make(map[cellSpan]*unionMirror),
		pins:     make(map[uint64]map[*ShardedSnapshot]struct{}),
		dummy:    rc.dummy,
		nInitPts: rc.lenP2S,
		nInitObs: rc.lenO2S,
	}
	s.mirCap = 2 * n
	if s.mirCap < 8 {
		s.mirCap = 8
	}
	s.shards = make([]*shardUnit, n)
	rec := RecoveryStats{CheckpointBytes: rcBytes}

	// Phase 1: per shard, load the checkpoint, open at it, scan the log, and
	// replay the mandatory stretch up to the router checkpoint's view of the
	// shard. The checkpoint protocol synced every shard log before the
	// router image was written, so an incomplete stretch is corruption, not
	// a crash artifact.
	scans := make([]*shardScan, n)
	for i := 0; i < n; i++ {
		sd := filepath.Join(dir, shardDirName(i))
		ck, ckBytes, err := loadLatestCheckpoint(sd, pageNS(shardPageNS(i), pc.RecordAccess))
		if err != nil {
			return nil, fmt.Errorf("connquery: durable: shard %d: %w", i, err)
		}
		if ck == nil {
			return nil, fmt.Errorf("connquery: durable: shard %d of %s has no checkpoint (torn bootstrap — remove the directory and re-bootstrap)", i, dir)
		}
		db, err := openAt(ck, cfg)
		if err != nil {
			return nil, fmt.Errorf("connquery: durable: shard %d: %w", i, err)
		}
		if db.Version() > rc.epochs[i] {
			return nil, fmt.Errorf("connquery: durable: shard %d checkpoint (epoch %d) is newer than the router checkpoint's view (epoch %d)", i, db.Version(), rc.epochs[i])
		}
		sc, err := wal.ScanDir(sd, rtree.DefaultPageSize, pageNS(shardPageNS(i), pc.RecordAccess))
		if err != nil {
			return nil, fmt.Errorf("connquery: durable: shard %d: %w", i, err)
		}
		rec.CheckpointBytes += ckBytes
		rec.WALBytes += sc.Bytes
		rec.TornBytes += sc.TornBytes

		cut := 0
		for cut < len(sc.Records) && sc.Records[cut].Epoch <= rc.epochs[i] {
			cut++
		}
		applied, err := replayRecords(db, sc.Records[:cut])
		if err != nil {
			return nil, fmt.Errorf("connquery: durable: shard %d: %w", i, err)
		}
		if got := db.Version(); got != rc.epochs[i] {
			return nil, fmt.Errorf("connquery: durable: shard %d log ends at epoch %d, router checkpoint expects %d", i, got, rc.epochs[i])
		}
		s.shards[i] = &shardUnit{
			region: s.m.cellRegion(i),
			db:     db,
			l2gP:   append([]int32(nil), rc.l2gP[i]...),
			l2gO:   append([]int32(nil), rc.l2gO[i]...),
		}
		scans[i] = &shardScan{recs: sc.Records, next: cut, applied: applied}
	}

	// Phase 2: rebuild the global registries at the router cut from the ID
	// tables plus the shard states (now exactly at that cut).
	s.p2s = make([]pointLoc, rc.lenP2S)
	s.o2s = make([]obsLoc, rc.lenO2S)
	seenP := make([]bool, rc.lenP2S)
	for i, sh := range s.shards {
		v := sh.db.current()
		if len(sh.l2gP) != len(v.points) || len(sh.l2gO) != len(v.obstacles) {
			return nil, fmt.Errorf("connquery: durable: shard %d tables (%d points, %d obstacles) disagree with its recovered storage (%d, %d)",
				i, len(sh.l2gP), len(sh.l2gO), len(v.points), len(v.obstacles))
		}
		for lid, gid := range sh.l2gP {
			if gid < 0 {
				continue // bootstrap dummy slot
			}
			if seenP[gid] {
				return nil, fmt.Errorf("connquery: durable: point %d claimed by two shards", gid)
			}
			seenP[gid] = true
			s.p2s[gid] = pointLoc{shard: int32(i), lid: int32(lid), p: v.points[lid]}
		}
		for lid, gid := range sh.l2gO {
			s.o2s[gid].r = v.obstacles[lid]
			s.o2s[gid].reps = append(s.o2s[gid].reps, obsRep{shard: int32(i), lid: int32(lid)})
		}
	}
	for gid, ok := range seenP {
		if !ok {
			return nil, fmt.Errorf("connquery: durable: point %d is in no shard's table", gid)
		}
	}
	for gid := range s.o2s {
		if len(s.o2s[gid].reps) == 0 {
			return nil, fmt.Errorf("connquery: durable: obstacle %d has no replicas", gid)
		}
	}

	// Phase 3: the consistent-cut walk along the sequencer tail. An entry is
	// accepted only when every target shard's log holds the matching next
	// record; acceptance applies the records and redoes the sequencer's
	// bookkeeping exactly as the original commit did.
	seqDir := filepath.Join(dir, seqDirName)
	if err := os.MkdirAll(seqDir, 0o755); err != nil {
		return nil, fmt.Errorf("connquery: durable: %w", err)
	}
	seqScan, err := wal.ScanDir(seqDir, rtree.DefaultPageSize, pageNS(seqPageNS, pc.RecordAccess))
	if err != nil {
		return nil, fmt.Errorf("connquery: durable: sequencer: %w", err)
	}
	rec.WALBytes += seqScan.Bytes
	rec.TornBytes += seqScan.TornBytes

	rev := rc.rev
	var acceptedSeq []wal.Record
	tailDelPts := make(map[int32]bool)
	tailDelObs := make(map[int32]bool)
walk:
	for _, se := range seqScan.Records {
		if se.Epoch <= rc.rev {
			continue // pre-checkpoint history, already in the image
		}
		if se.Epoch != rev+1 {
			return nil, fmt.Errorf("connquery: durable: sequencer gap: log jumps from revision %d to %d", rev, se.Epoch)
		}
		e, err := recordEntry(se)
		if err != nil {
			return nil, err
		}
		// Derive the target shards exactly as the live mutation would.
		var targets []int
		switch e.op {
		case opInsPt:
			if e.gid != int32(len(s.p2s)) {
				return nil, fmt.Errorf("connquery: durable: sequencer assigns PID %d, registry expects %d", e.gid, len(s.p2s))
			}
			targets = []int{s.m.cellOf(e.p)}
		case opDelPt:
			if e.gid < 0 || int(e.gid) >= len(s.p2s) {
				return nil, fmt.Errorf("connquery: durable: sequencer deletes unknown point %d", e.gid)
			}
			targets = []int{int(s.p2s[e.gid].shard)}
		case opInsObs:
			if e.gid != int32(len(s.o2s)) {
				return nil, fmt.Errorf("connquery: durable: sequencer assigns OID %d, registry expects %d", e.gid, len(s.o2s))
			}
			for i, sh := range s.shards {
				if e.r.Intersects(sh.region) {
					targets = append(targets, i)
				}
			}
		case opDelObs:
			if e.gid < 0 || int(e.gid) >= len(s.o2s) {
				return nil, fmt.Errorf("connquery: durable: sequencer deletes unknown obstacle %d", e.gid)
			}
			for _, rep := range s.o2s[e.gid].reps {
				targets = append(targets, int(rep.shard))
			}
		}
		// All targets must hold the matching next record, or the entry — and
		// everything after it — is beyond the consistent cut.
		for _, ti := range targets {
			sc := scans[ti]
			if sc.next >= len(sc.recs) {
				break walk
			}
			r := sc.recs[sc.next]
			var wantOp uint8
			var wantLid int32
			switch e.op {
			case opInsPt:
				wantOp, wantLid = wal.OpInsertPoint, int32(len(s.shards[ti].l2gP))
			case opDelPt:
				wantOp, wantLid = wal.OpDeletePoint, s.p2s[e.gid].lid
			case opInsObs:
				wantOp, wantLid = wal.OpInsertObstacle, int32(len(s.shards[ti].l2gO))
			case opDelObs:
				for _, rep := range s.o2s[e.gid].reps {
					if int(rep.shard) == ti {
						wantLid = rep.lid
					}
				}
				wantOp = wal.OpDeleteObstacle
			}
			if r.Op != wantOp || r.ID != wantLid || r.Coords != se.Coords ||
				r.Epoch != s.shards[ti].db.Version()+1 {
				break walk
			}
		}
		// Accepted: consume and apply on every target, then redo the
		// sequencer bookkeeping.
		for _, ti := range targets {
			sc := scans[ti]
			r := sc.recs[sc.next]
			if _, err := replayRecords(s.shards[ti].db, sc.recs[sc.next:sc.next+1]); err != nil {
				return nil, fmt.Errorf("connquery: durable: shard %d: %w", ti, err)
			}
			sc.applied = append(sc.applied, r)
			sc.next++
		}
		switch e.op {
		case opInsPt:
			ti := targets[0]
			sh := s.shards[ti]
			s.p2s = append(s.p2s, pointLoc{shard: int32(ti), lid: int32(len(sh.l2gP)), p: e.p})
			sh.l2gP = append(sh.l2gP, e.gid)
		case opDelPt:
			tailDelPts[e.gid] = true
		case opInsObs:
			loc := obsLoc{r: e.r}
			for _, ti := range targets {
				sh := s.shards[ti]
				loc.reps = append(loc.reps, obsRep{shard: int32(ti), lid: int32(len(sh.l2gO))})
				sh.l2gO = append(sh.l2gO, e.gid)
			}
			s.o2s = append(s.o2s, loc)
		case opDelObs:
			tailDelObs[e.gid] = true
		}
		s.log = append(s.log, e)
		acceptedSeq = append(acceptedSeq, se)
		rev++
	}

	// Phase 4: finalize the in-memory state at the recovered revision.
	s.rev.Store(rev)
	for _, sh := range s.shards {
		sh.committedEpoch = sh.db.Version()
		sh.committedRev = rev
	}
	// Live counts and the initial-range tombstones. Objects of the initial
	// range (the registries at the router cut) that are dead in the final
	// state and NOT deleted by an accepted tail entry were already dead at
	// the cut; mirrors must skip them at build time, since the deletions are
	// in no log anymore.
	deadP := 0
	initDeadPts := make(map[int32]bool)
	for gid := range s.p2s {
		loc := s.p2s[gid]
		if s.shards[loc.shard].db.current().deletedPts[loc.lid] {
			deadP++
			if gid < s.nInitPts && !tailDelPts[int32(gid)] {
				initDeadPts[int32(gid)] = true
			}
		}
	}
	deadO := 0
	initDeadObs := make(map[int32]bool)
	for gid := range s.o2s {
		rep := s.o2s[gid].reps[0]
		if s.shards[rep.shard].db.current().deletedObs[rep.lid] {
			deadO++
			if gid < s.nInitObs && !tailDelObs[int32(gid)] {
				initDeadObs[int32(gid)] = true
			}
		}
	}
	s.nPts.Store(int64(len(s.p2s) - deadP))
	s.nObs.Store(int64(len(s.o2s) - deadO))
	if len(initDeadPts) > 0 {
		s.initDeadPts = initDeadPts
	}
	if len(initDeadObs) > 0 {
		s.initDeadObs = initDeadObs
	}

	// Phase 5: compact every log to exactly the recovered state and attach
	// the writers. Shard-level automatic checkpoints stay off — the router
	// protocol owns checkpoint timing.
	for i, sc := range scans {
		sd := filepath.Join(dir, shardDirName(i))
		shRec := RecoveryStats{Epoch: s.shards[i].db.Version(), WALRecords: len(sc.applied)}
		if err := attachDurable(s.shards[i].db, sd, cfg, 0, sc.applied, shRec); err != nil {
			return nil, fmt.Errorf("connquery: durable: shard %d: %w", i, err)
		}
		rec.WALRecords += len(sc.applied)
	}
	if err := wal.Rewrite(seqDir, acceptedSeq); err != nil {
		return nil, fmt.Errorf("connquery: durable: sequencer: %w", err)
	}
	w, err := wal.Create(seqDir, rev+1, walOptions(cfg))
	if err != nil {
		return nil, fmt.Errorf("connquery: durable: sequencer: %w", err)
	}
	rec.Epoch = rev
	rec.PagesRead = pc.Faults()
	s.dur = &shardedDurable{dir: dir, seq: w, since: len(acceptedSeq), every: every, rec: rec}
	return s, nil
}

// durWritable is the mutation entry gate of the sharded tier.
func (s *ShardedDB) durWritable() error {
	d := s.dur
	if d == nil {
		return nil
	}
	s.seqMu.RLock()
	defer s.seqMu.RUnlock()
	if d.closed {
		return errors.New("connquery: durable database is closed")
	}
	return d.err
}

// maybeCheckpointDurable triggers the automatic checkpoint when due. Called
// at mutation entry, before any shard lock is held (the checkpoint itself
// takes every shard lock); the gate keeps concurrent mutations from piling
// up behind a second checkpoint.
func (s *ShardedDB) maybeCheckpointDurable() {
	d := s.dur
	if d == nil || d.every <= 0 {
		return
	}
	s.seqMu.RLock()
	due := d.err == nil && !d.closed && d.since >= d.every
	s.seqMu.RUnlock()
	if !due || !d.ckptGate.CompareAndSwap(false, true) {
		return
	}
	defer d.ckptGate.Store(false)
	s.Checkpoint() //nolint:errcheck // latched in d.err
}

// lockAllShards takes every shard lock in ascending index order (the global
// lock order) and returns the matching unlock.
func (s *ShardedDB) lockAllShards() (unlock func()) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	return func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}
}

// Checkpoint quiesces the router and makes the current revision durable:
// sync every log, write the router image, checkpoint every shard, truncate
// the sequencer. It serializes with mutations on the shard locks.
func (s *ShardedDB) Checkpoint() error {
	if s.dur == nil {
		return errNotDurable
	}
	unlock := s.lockAllShards()
	defer unlock()
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.checkpointShardedLocked()
}

// checkpointShardedLocked runs the checkpoint protocol. Caller holds every
// shard lock and seqMu; any step's failure latches fail-stop.
func (s *ShardedDB) checkpointShardedLocked() error {
	d := s.dur
	if d.closed {
		return errors.New("connquery: durable database is closed")
	}
	if d.err != nil {
		return d.err
	}
	latch := func(err error) error {
		d.err = err
		return err
	}
	// Sync first: the router image must never reference shard state whose
	// log tail is still in page cache.
	for i, sh := range s.shards {
		if err := sh.db.syncWAL(); err != nil {
			return latch(fmt.Errorf("connquery: durable: shard %d: %w", i, err))
		}
	}
	if err := d.seq.Sync(); err != nil {
		return latch(fmt.Errorf("connquery: durable: sequencer: %w", err))
	}
	if err := writeRouterCkptFile(filepath.Join(d.dir, routerDirName), s.routerImage()); err != nil {
		return latch(err)
	}
	for i, sh := range s.shards {
		if err := sh.db.Checkpoint(); err != nil {
			return latch(fmt.Errorf("connquery: durable: shard %d: %w", i, err))
		}
	}
	if err := d.seq.Truncate(); err != nil {
		return latch(fmt.Errorf("connquery: durable: sequencer: %w", err))
	}
	d.since = 0
	return nil
}

// Close checkpoints the current revision and releases the durable
// directory. Closing an in-memory ShardedDB is a no-op. Queries keep
// working after Close; only mutations refuse.
func (s *ShardedDB) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	unlock := s.lockAllShards()
	defer unlock()
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	if d.closed {
		return nil
	}
	var firstErr error
	if d.err == nil {
		firstErr = s.checkpointShardedLocked()
	}
	d.closed = true
	for i, sh := range s.shards {
		if err := sh.db.Close(); firstErr == nil && err != nil {
			firstErr = fmt.Errorf("connquery: durable: shard %d: %w", i, err)
		}
	}
	if err := d.seq.Close(); firstErr == nil && err != nil {
		firstErr = fmt.Errorf("connquery: durable: sequencer: %w", err)
	}
	return firstErr
}

// RecoveryStats reports what this handle's durable open did, aggregated
// across the router and every shard. Zero for in-memory handles.
func (s *ShardedDB) RecoveryStats() RecoveryStats {
	if s.dur == nil {
		return RecoveryStats{}
	}
	return s.dur.rec
}
