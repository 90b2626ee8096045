package connquery

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Snapshot format: a little-endian binary encoding of the point and
// obstacle sets. The indexes are rebuilt on load (bulk loading 100k+
// objects takes well under a second, so persisting tree pages would buy
// little and cost format stability).
//
//	magic   [8]byte  "CONNQv1\n"
//	nPoints uint64
//	points  nPoints * (x, y float64)
//	nObs    uint64
//	obs     nObs * (minX, minY, maxX, maxY float64)

var snapshotMagic = [8]byte{'C', 'O', 'N', 'N', 'Q', 'v', '1', '\n'}

// Save writes the database's point and obstacle sets to w in the snapshot
// format. The version current when Save starts is pinned for the whole
// write, so a snapshot taken under concurrent mutation is still internally
// consistent. Construction options (answer cache, planner) are runtime
// configuration and are not persisted; pass them to Load.
func (db *DB) Save(w io.Writer) error {
	v := db.current()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("connquery: save: %w", err)
	}
	writeU64 := func(v uint64) error { return binary.Write(bw, binary.LittleEndian, v) }
	writeF64 := func(v float64) error {
		return binary.Write(bw, binary.LittleEndian, math.Float64bits(v))
	}
	// Deleted objects are dropped from the snapshot; PIDs are therefore
	// compacted on load.
	if err := writeU64(uint64(len(v.points) - len(v.deletedPts))); err != nil {
		return fmt.Errorf("connquery: save: %w", err)
	}
	for pid, p := range v.points {
		if v.deletedPts[int32(pid)] {
			continue
		}
		if err := writeF64(p.X); err != nil {
			return fmt.Errorf("connquery: save: %w", err)
		}
		if err := writeF64(p.Y); err != nil {
			return fmt.Errorf("connquery: save: %w", err)
		}
	}
	if err := writeU64(uint64(len(v.obstacles) - len(v.deletedObs))); err != nil {
		return fmt.Errorf("connquery: save: %w", err)
	}
	for oid, o := range v.obstacles {
		if v.deletedObs[int32(oid)] {
			continue
		}
		for _, v := range [4]float64{o.MinX, o.MinY, o.MaxX, o.MaxY} {
			if err := writeF64(v); err != nil {
				return fmt.Errorf("connquery: save: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("connquery: save: %w", err)
	}
	return nil
}

// Load reads a snapshot written by Save and rebuilds the database with the
// given options.
func Load(r io.Reader, opts ...Option) (*DB, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("connquery: load: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("connquery: load: bad magic %q (not a connquery snapshot?)", magic)
	}
	readU64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readF64 := func() (float64, error) {
		var bits uint64
		if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
			return 0, err
		}
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("non-finite coordinate")
		}
		return v, nil
	}

	n, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("connquery: load: point count: %w", err)
	}
	const maxObjects = 1 << 28 // sanity bound against corrupt headers
	if n > maxObjects {
		return nil, fmt.Errorf("connquery: load: implausible point count %d", n)
	}
	points := make([]Point, n)
	for i := range points {
		if points[i].X, err = readF64(); err != nil {
			return nil, fmt.Errorf("connquery: load: point %d: %w", i, err)
		}
		if points[i].Y, err = readF64(); err != nil {
			return nil, fmt.Errorf("connquery: load: point %d: %w", i, err)
		}
	}
	m, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("connquery: load: obstacle count: %w", err)
	}
	if m > maxObjects {
		return nil, fmt.Errorf("connquery: load: implausible obstacle count %d", m)
	}
	obstacles := make([]Rect, m)
	for i := range obstacles {
		var vals [4]float64
		for j := range vals {
			if vals[j], err = readF64(); err != nil {
				return nil, fmt.Errorf("connquery: load: obstacle %d: %w", i, err)
			}
		}
		obstacles[i] = Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	}
	return Open(points, obstacles, opts...)
}

// SaveFile writes the snapshot to a file atomically: the bytes go to a
// temp file in the same directory, are fsynced, and replace path with a
// rename, so a crash mid-save leaves either the previous snapshot or the
// complete new one — never a truncated file that Load rejects.
func (db *DB) SaveFile(path string) error {
	if err := atomicWriteFile(path, db.Save); err != nil {
		return fmt.Errorf("connquery: save: %w", err)
	}
	return nil
}

// LoadFile reads a snapshot from a file.
func LoadFile(path string, opts ...Option) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("connquery: load: %w", err)
	}
	defer f.Close()
	return Load(f, opts...)
}
