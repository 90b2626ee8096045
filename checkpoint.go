package connquery

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"connquery/internal/rtree"
)

// Checkpoint format: the durable tier's epoch-stamped superset of the v1
// snapshot. Where Save compacts deleted objects away (IDs are reassigned on
// Load), a checkpoint must preserve the exact ID space — WAL replay assigns
// the next PID as len(points) and references logged IDs — so it stores the
// FULL append-only arrays plus the tombstone ID lists and the epoch, with a
// CRC-32C trailer so a damaged file is detected rather than replayed.
//
//	magic    [8]byte  "CONNQv2\n"
//	epoch    uint64
//	nPoints  uint64   all points ever inserted, deleted included
//	points   nPoints * (x, y float64)
//	nDeadPts uint64
//	deadPts  nDeadPts * uint32 (ascending PIDs)
//	nObs     uint64
//	obs      nObs * (minX, minY, maxX, maxY float64)
//	nDeadObs uint64
//	deadObs  nDeadObs * uint32 (ascending OIDs)
//	crc      uint32   CRC-32C of everything above
//
// Files are named ckpt-%016x (hex epoch) and written atomically: temp file,
// fsync, rename, directory fsync. Recovery picks the highest-named file.

var checkpointMagic = [8]byte{'C', 'O', 'N', 'N', 'Q', 'v', '2', '\n'}

const ckptPrefix = "ckpt-"

func checkpointName(epoch uint64) string { return fmt.Sprintf("%s%016x", ckptPrefix, epoch) }

// ckptData is a decoded checkpoint: the exact durable image of a version's
// storage, sufficient to rebuild the DB at its epoch with IDs preserved.
type ckptData struct {
	epoch     uint64
	points    []Point
	obstacles []Rect
	deadPts   map[int32]bool
	deadObs   map[int32]bool
}

// writeCheckpoint encodes v into w.
func writeCheckpoint(w io.Writer, v *version) error {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	writeU64 := func(x uint64) error { return binary.Write(bw, binary.LittleEndian, x) }
	writeF64 := func(x float64) error {
		return binary.Write(bw, binary.LittleEndian, math.Float64bits(x))
	}
	writeIDs := func(m map[int32]bool) error {
		ids := make([]int32, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if err := writeU64(uint64(len(ids))); err != nil {
			return err
		}
		for _, id := range ids {
			if err := binary.Write(bw, binary.LittleEndian, uint32(id)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeU64(v.epoch); err != nil {
		return err
	}
	if err := writeU64(uint64(len(v.points))); err != nil {
		return err
	}
	for _, p := range v.points {
		if err := writeF64(p.X); err != nil {
			return err
		}
		if err := writeF64(p.Y); err != nil {
			return err
		}
	}
	if err := writeIDs(v.deletedPts); err != nil {
		return err
	}
	if err := writeU64(uint64(len(v.obstacles))); err != nil {
		return err
	}
	for _, o := range v.obstacles {
		for _, x := range [4]float64{o.MinX, o.MinY, o.MaxX, o.MaxY} {
			if err := writeF64(x); err != nil {
				return err
			}
		}
	}
	if err := writeIDs(v.deletedObs); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The trailer hashes everything flushed so far; it goes to w alone.
	return binary.Write(w, binary.LittleEndian, h.Sum32())
}

// parseCheckpoint decodes an in-memory checkpoint image, verifying the
// CRC-32C trailer first so a torn or bit-rotted file can never be
// half-applied.
func parseCheckpoint(data []byte) (*ckptData, error) {
	if len(data) < len(checkpointMagic)+8+4 {
		return nil, fmt.Errorf("connquery: checkpoint: truncated file (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); got != want {
		return nil, fmt.Errorf("connquery: checkpoint: CRC mismatch (file %08x, computed %08x)", got, want)
	}
	if [8]byte(body[:8]) != checkpointMagic {
		return nil, fmt.Errorf("connquery: checkpoint: bad magic %q", body[:8])
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
	readIDs := func(bound int) (map[int32]bool, error) {
		n, err := readU64()
		if err != nil {
			return nil, err
		}
		if n > uint64(bound) {
			return nil, fmt.Errorf("implausible tombstone count %d over %d objects", n, bound)
		}
		m := make(map[int32]bool, n)
		for i := uint64(0); i < n; i++ {
			if off+4 > len(body) {
				return nil, io.ErrUnexpectedEOF
			}
			id := binary.LittleEndian.Uint32(body[off:])
			off += 4
			if int64(id) >= int64(bound) {
				return nil, fmt.Errorf("tombstone ID %d out of range", id)
			}
			m[int32(id)] = true
		}
		return m, nil
	}

	c := &ckptData{}
	epoch, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("connquery: checkpoint: epoch: %w", err)
	}
	if epoch == 0 {
		return nil, fmt.Errorf("connquery: checkpoint: zero epoch")
	}
	c.epoch = epoch
	n, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("connquery: checkpoint: point count: %w", err)
	}
	if n > maxObjects {
		return nil, fmt.Errorf("connquery: checkpoint: implausible point count %d", n)
	}
	c.points = make([]Point, n)
	for i := range c.points {
		if c.points[i].X, err = readF64(); err != nil {
			return nil, fmt.Errorf("connquery: checkpoint: point %d: %w", i, err)
		}
		if c.points[i].Y, err = readF64(); err != nil {
			return nil, fmt.Errorf("connquery: checkpoint: point %d: %w", i, err)
		}
	}
	if c.deadPts, err = readIDs(len(c.points)); err != nil {
		return nil, fmt.Errorf("connquery: checkpoint: dead points: %w", err)
	}
	m, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("connquery: checkpoint: obstacle count: %w", err)
	}
	if m > maxObjects {
		return nil, fmt.Errorf("connquery: checkpoint: implausible obstacle count %d", m)
	}
	c.obstacles = make([]Rect, m)
	for i := range c.obstacles {
		var vals [4]float64
		for j := range vals {
			if vals[j], err = readF64(); err != nil {
				return nil, fmt.Errorf("connquery: checkpoint: obstacle %d: %w", i, err)
			}
		}
		c.obstacles[i] = Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	}
	if c.deadObs, err = readIDs(len(c.obstacles)); err != nil {
		return nil, fmt.Errorf("connquery: checkpoint: dead obstacles: %w", err)
	}
	if off != len(body) {
		return nil, fmt.Errorf("connquery: checkpoint: %d trailing bytes", len(body)-off)
	}
	return c, nil
}

// atomicWriteFile writes a file via temp file + fsync + rename + directory
// fsync, so the path either keeps its old contents or holds the complete
// new ones — never a truncated tail. write receives the temp file.
func atomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := write(tmp); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
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

// writeCheckpointFile persists v as dir's checkpoint at its epoch and
// removes older checkpoint files once the new one is durable. A crash
// between rename and removal leaves extra files; recovery always picks the
// highest epoch, so they are garbage, not ambiguity.
func writeCheckpointFile(dir string, v *version) error {
	path := filepath.Join(dir, checkpointName(v.epoch))
	if err := atomicWriteFile(path, func(w io.Writer) error { return writeCheckpoint(w, v) }); err != nil {
		return fmt.Errorf("connquery: checkpoint: %w", err)
	}
	names, err := listCheckpoints(dir)
	if err != nil {
		return fmt.Errorf("connquery: checkpoint: %w", err)
	}
	for _, name := range names {
		if name != checkpointName(v.epoch) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("connquery: checkpoint: %w", err)
			}
		}
	}
	return nil
}

// listCheckpoints returns dir's checkpoint file names in ascending epoch
// order.
func listCheckpoints(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && len(name) == len(ckptPrefix)+16 && name[:len(ckptPrefix)] == ckptPrefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// HasDurableState reports whether dir holds a recoverable durable store (a
// checkpoint written by a previous OpenDurable/OpenDurableSharded or
// Checkpoint call). connserve uses it to decide between recovering an
// existing -data-dir and bootstrapping a fresh one.
func HasDurableState(dir string) bool {
	names, err := listCheckpoints(dir)
	return err == nil && len(names) > 0
}

// loadLatestCheckpoint reads and parses dir's newest checkpoint. onPage,
// when non-nil, is charged once per page of the file — recovery's real-I/O
// accounting. Returns nil data (no error) when the directory holds no
// checkpoint at all.
func loadLatestCheckpoint(dir string, onPage func(int64)) (*ckptData, int64, error) {
	names, err := listCheckpoints(dir)
	if err != nil || len(names) == 0 {
		return nil, 0, err
	}
	path := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	chargePages(data, onPage)
	c, err := parseCheckpoint(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return c, int64(len(data)), nil
}

// ckptPageBase namespaces checkpoint page IDs away from WAL segment page
// IDs in the shared recovery counter.
const ckptPageBase = int64(1) << 48

// chargePages charges onPage (when non-nil) once per rtree.DefaultPageSize
// page of a checkpoint image.
func chargePages(data []byte, onPage func(int64)) {
	if onPage == nil {
		return
	}
	for off := 0; off < len(data); off += rtree.DefaultPageSize {
		onPage(ckptPageBase | int64(off/rtree.DefaultPageSize))
	}
}

// openAt rebuilds a DB at a checkpoint's exact state: the full append-only
// arrays (deleted objects included, so the ID space and every engine
// tie-break match the pre-crash instance), the tombstone sets, and the
// stored epoch. The R-trees bulk-load only live objects — retrieval order
// is deterministic by (distance, kind, ID), so answers and the
// machine-independent metrics are independent of tree build history. The
// point-inside-obstacle validation of Open is skipped: this data already
// passed it when the original mutations committed. Unlike Open, a world
// with zero live points is allowed (a shard unit holding only its
// tombstoned bootstrap dummy), though the point array itself must be
// non-empty.
func openAt(c *ckptData, cfg config) (*DB, error) {
	if len(c.points) == 0 {
		return nil, fmt.Errorf("connquery: checkpoint has no points")
	}
	v := &version{
		epoch:      c.epoch,
		points:     c.points,
		obstacles:  c.obstacles,
		deletedPts: c.deadPts,
		deletedObs: c.deadObs,
	}
	if len(v.deletedPts) == 0 {
		v.deletedPts = nil
	}
	if len(v.deletedObs) == 0 {
		v.deletedObs = nil
	}
	return newDB(v, cfg), nil
}
