// Package wal implements the write-ahead log under the durable storage
// tier: a CRC-framed record codec for the four mutation kinds, an
// append-only segment writer with a configurable group-commit window, and a
// sequential directory scanner that recovers the longest valid record
// prefix after a crash.
//
// Framing. Each record is one frame
//
//	length  uint32  payload byte count
//	crc     uint32  CRC-32C (Castagnoli) of the payload
//	payload         op(1) + id(4) + epoch(8) + coords (2 or 4 float64)
//
// all little-endian. The length prefix bounds the read, the checksum
// detects torn or bit-rotted tails: a scanner that hits a frame whose
// length is implausible, whose bytes are short, or whose checksum
// mismatches stops and reports everything before it as the durable prefix.
//
// Segments. Records append to files named wal-%016x.log, the hex field
// being the epoch of the segment's first record, so the lexicographic file
// order is the epoch order and recovery is one sequential prefix scan of
// the sorted directory. Epochs within and across segments are strictly
// increasing; a replayer skips records at or below its current epoch,
// which makes replay idempotent against the duplicate frames a crashed
// compaction can leave behind.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record ops. The zero value is invalid, so a zeroed frame never decodes.
const (
	OpInsertPoint uint8 = iota + 1
	OpDeletePoint
	OpInsertObstacle
	OpDeleteObstacle
)

// Record is one logged mutation. For point ops Coords[0:2] hold x, y; for
// obstacle ops Coords hold minX, minY, maxX, maxY. ID is the object's
// ID in the logging domain (PID/OID single-node, global ID in the sharded
// sequencer log, shard-local ID in a shard's own log) and Epoch is the
// epoch (or router revision) the mutation committed as.
type Record struct {
	Op     uint8
	ID     int32
	Epoch  uint64
	Coords [4]float64
}

func (r Record) pointOp() bool { return r.Op == OpInsertPoint || r.Op == OpDeletePoint }

func (r Record) payloadLen() int {
	if r.pointOp() {
		return 1 + 4 + 8 + 2*8
	}
	return 1 + 4 + 8 + 4*8
}

const (
	frameHeader   = 8 // length + crc
	maxPayloadLen = 1 + 4 + 8 + 4*8
	minPayloadLen = 1 + 4 + 8 + 2*8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame encodes r as one frame at the end of dst.
func AppendFrame(dst []byte, r Record) []byte {
	n := r.payloadLen()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	crcAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // checksum patched below
	payloadAt := len(dst)
	dst = append(dst, r.Op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
	dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
	nc := 2
	if !r.pointOp() {
		nc = 4
	}
	for i := 0; i < nc; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Coords[i]))
	}
	binary.LittleEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[payloadAt:], castagnoli))
	return dst
}

// DecodeFrame decodes the frame at the start of b. It returns the record
// and the frame's total byte length, or ok=false when b does not begin
// with a complete, checksum-valid frame of a known op — the torn-tail
// verdict that ends a recovery scan.
func DecodeFrame(b []byte) (r Record, n int, ok bool) {
	if len(b) < frameHeader {
		return Record{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen < minPayloadLen || plen > maxPayloadLen || len(b) < frameHeader+plen {
		return Record{}, 0, false
	}
	payload := b[frameHeader : frameHeader+plen]
	if binary.LittleEndian.Uint32(b[4:]) != crc32.Checksum(payload, castagnoli) {
		return Record{}, 0, false
	}
	r.Op = payload[0]
	if r.Op < OpInsertPoint || r.Op > OpDeleteObstacle {
		return Record{}, 0, false
	}
	if r.payloadLen() != plen {
		return Record{}, 0, false
	}
	r.ID = int32(binary.LittleEndian.Uint32(payload[1:]))
	r.Epoch = binary.LittleEndian.Uint64(payload[5:])
	nc := 2
	if !r.pointOp() {
		nc = 4
	}
	for i := 0; i < nc; i++ {
		r.Coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[13+8*i:]))
	}
	return r, frameHeader + plen, true
}

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segmentName(firstEpoch uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstEpoch, segSuffix)
}

func isSegment(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) &&
		len(name) == len(segPrefix)+16+len(segSuffix)
}

// listSegments returns the directory's segment file names in epoch order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isSegment(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// ScanResult is the outcome of a recovery scan: the longest valid record
// prefix of the directory, plus I/O accounting for the recovery cost model.
type ScanResult struct {
	Records   []Record
	Segments  int   // segment files visited
	Bytes     int64 // bytes read
	TornBytes int64 // trailing bytes discarded as a torn or corrupt tail
}

// ScanDir reads every segment in epoch order and accumulates the valid
// record prefix. An invalid frame in the last segment is a torn tail (the
// crash the log exists to survive): the scan stops and reports the bytes
// dropped. An invalid frame in an earlier segment is corruption that a
// clean append stream cannot produce, and is an error — silently skipping
// it could mis-replay history. onPage, when non-nil, is invoked once per
// distinct pageSize-aligned file page read, for real-I/O accounting.
func ScanDir(dir string, pageSize int, onPage func(pageID int64)) (ScanResult, error) {
	names, err := listSegments(dir)
	if err != nil {
		return ScanResult{}, err
	}
	var res ScanResult
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return ScanResult{}, err
		}
		res.Segments++
		res.Bytes += int64(len(data))
		if onPage != nil && pageSize > 0 {
			for off := 0; off < len(data); off += pageSize {
				onPage(int64(i)<<32 | int64(off/pageSize))
			}
		}
		off := 0
		for off < len(data) {
			rec, n, ok := DecodeFrame(data[off:])
			if !ok {
				if i != len(names)-1 {
					return ScanResult{}, fmt.Errorf("wal: segment %s: invalid frame at offset %d in a non-final segment", name, off)
				}
				res.TornBytes = int64(len(data) - off)
				return res, nil
			}
			res.Records = append(res.Records, rec)
			off += n
		}
	}
	return res, nil
}

// Rewrite replaces the directory's segments with a single freshly synced
// segment holding exactly recs (or with nothing when recs is empty). Boot
// runs it after recovery bounds the durable prefix: torn tails and records
// beyond the recovered cut vanish, so later scans — and later appenders —
// start from a clean log. The new segment is written and synced before any
// old segment is removed; a crash in between leaves duplicate records,
// which replay's epoch skip tolerates.
func Rewrite(dir string, recs []Record) error {
	old, err := listSegments(dir)
	if err != nil {
		return err
	}
	var fresh string
	if len(recs) > 0 {
		var buf []byte
		for _, r := range recs {
			buf = AppendFrame(buf, r)
		}
		fresh = segmentName(recs[0].Epoch)
		if err := atomicWrite(filepath.Join(dir, fresh), buf); err != nil {
			return err
		}
	}
	for _, name := range old {
		if name == fresh {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// atomicWrite writes data to path via a temp file, fsync and rename, then
// syncs the directory so the name itself is durable.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-wal-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Options configures a Writer.
type Options struct {
	// SyncWindow is the group-commit window. Zero (the default) is strict
	// durability: Append fsyncs before returning, so a record is on disk
	// before its mutation publishes. A positive window batches fsyncs in a
	// background syncer: Append buffers and returns immediately, and a
	// crash can lose up to the window's worth of log tail — recovery still
	// lands on a consistent earlier epoch, because the on-disk log is
	// always a prefix of the committed stream.
	SyncWindow time.Duration

	// SegmentBytes rolls the log to a new segment once the current one
	// exceeds this size. Zero means the 64 MiB default.
	SegmentBytes int64
}

const defaultSegmentBytes = 64 << 20

// Writer appends records to the directory's newest segment. One Writer
// owns a directory; the durable tier serializes appends under its writer
// lock, and the Writer's own mutex covers the background syncer.
type Writer struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	size      int64
	lastEpoch uint64
	dirty     bool // buffered bytes not yet fsynced (group mode)
	err       error

	syncReq chan struct{}
	closed  chan struct{}
	done    sync.WaitGroup
}

// Create opens a Writer on dir, starting a fresh segment for records from
// nextEpoch on. Existing segments are left untouched (boot compacts them
// with Rewrite first); a leftover segment with the same name is truncated,
// which is safe exactly because Rewrite already persisted its contents.
func Create(dir string, nextEpoch uint64, opts Options) (*Writer, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	w := &Writer{dir: dir, opts: opts, lastEpoch: nextEpoch - 1}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(nextEpoch)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w.f = f
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	if opts.SyncWindow > 0 {
		w.syncReq = make(chan struct{}, 1)
		w.closed = make(chan struct{})
		w.done.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

// Append logs one record: AppendBatch of one. In strict mode (zero
// SyncWindow) the record is durable when Append returns; in group mode it is
// durable within one window.
func (w *Writer) Append(r Record) error { return w.AppendBatch([]Record{r}) }

// AppendBatch logs a group of records as one physical write and — in strict
// mode — one fsync, the durability half of a commit: either the whole group
// is durable when AppendBatch returns, or the writer failed and nothing
// published. Epochs must be strictly increasing across the group and past
// the writer's last epoch; recovery cannot tell how records were grouped. In
// group-commit mode the frames buffer and the window syncer covers them, so
// a crash can lose up to one window of log tail. Errors are sticky: once an
// append or sync fails, the log refuses further records, and the durable
// tier above fails its writer the same way. An empty batch is a no-op.
func (w *Writer) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	last := w.lastEpoch
	for _, r := range recs {
		if r.Epoch <= last {
			return w.fail(fmt.Errorf("wal: non-monotonic epoch %d after %d", r.Epoch, last))
		}
		last = r.Epoch
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(recs[0].Epoch); err != nil {
			return w.fail(err)
		}
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	if _, err := w.f.Write(buf); err != nil {
		return w.fail(err)
	}
	w.size += int64(len(buf))
	w.lastEpoch = last
	if w.opts.SyncWindow == 0 {
		if err := w.f.Sync(); err != nil {
			return w.fail(err)
		}
		return nil
	}
	w.dirty = true
	select {
	case w.syncReq <- struct{}{}:
	default:
	}
	return nil
}

// fail latches err. Caller holds w.mu.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// rotateLocked syncs and closes the current segment and opens a new one
// whose name carries the epoch of its first record. Caller holds w.mu.
func (w *Writer) rotateLocked(nextEpoch uint64) error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(nextEpoch)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.f, w.size, w.dirty = f, 0, false
	return syncDir(w.dir)
}

// syncLoop is the group-commit syncer: it sleeps one window after the
// first append of a batch, then fsyncs everything buffered since.
func (w *Writer) syncLoop() {
	defer w.done.Done()
	for {
		select {
		case <-w.closed:
			return
		case <-w.syncReq:
		}
		timer := time.NewTimer(w.opts.SyncWindow)
		select {
		case <-w.closed:
			timer.Stop()
			return
		case <-timer.C:
		}
		w.mu.Lock()
		if w.err == nil && w.dirty {
			if err := w.f.Sync(); err != nil {
				w.fail(err)
			} else {
				w.dirty = false
			}
		}
		w.mu.Unlock()
	}
}

// Dirty reports whether appended records are still awaiting an fsync — the
// group-commit relaxed window. Strict mode and a sync-acked commit always
// leave the writer clean.
func (w *Writer) Dirty() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dirty
}

// Sync forces buffered records to disk (a no-op in strict mode, where
// Append already synced). Checkpoints call it before cutting the log.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.dirty = false
	return nil
}

// Truncate discards every segment after syncing: the caller has just made
// a checkpoint at the writer's last epoch durable, so the whole log is
// covered. A fresh segment for the next epoch replaces the old files.
func (w *Writer) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	if err := w.f.Close(); err != nil {
		return w.fail(err)
	}
	names, err := listSegments(w.dir)
	if err != nil {
		return w.fail(err)
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(w.dir, name)); err != nil {
			return w.fail(err)
		}
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(w.lastEpoch+1)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return w.fail(err)
	}
	w.f, w.size, w.dirty = f, 0, false
	if err := syncDir(w.dir); err != nil {
		return w.fail(err)
	}
	return nil
}

// Close syncs outstanding records and closes the segment. The Writer is
// unusable afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed != nil {
		select {
		case <-w.closed:
		default:
			close(w.closed)
		}
	}
	w.mu.Unlock()
	w.done.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return w.fail(err)
	}
	if err := w.f.Close(); err != nil {
		return w.fail(err)
	}
	w.err = fmt.Errorf("wal: writer closed")
	return nil
}
