package connquery

import (
	"errors"
	"math"
)

// Mutation support with snapshot isolation. Every mutation — the four unary
// ops below are one-member DB.Apply ticks — serializes on the DB's writer
// lock, builds a new immutable version from the current one (apply.go) —
// copy-on-write R*-tree (only the nodes on the touched root-to-leaf paths
// are duplicated), shared point/obstacle storage, copy-on-write tombstone
// maps — and publishes it with a single atomic pointer swap. Queries load
// the version pointer once at their start, so they always see one
// consistent snapshot: mutations may run concurrently with any number of
// queries on this DB or its clones, and clones pinned to older versions
// keep answering from exactly the state they captured.
//
// PIDs and OIDs are never reused: storage is append-only along a version
// chain and deletions only set tombstones, so result PIDs from any version
// remain meaningful.

// ErrIDSpaceExhausted is the error of an insert that would need a PID or
// OID beyond math.MaxInt32: IDs are int32 and never reused, so a database
// holds at most 2³¹ points and 2³¹ obstacles over its lifetime, deleted
// ones included.
var ErrIDSpaceExhausted = errors.New("connquery: ID space exhausted")

// nextID returns the ID the next insert into an append-only array of n
// objects receives, or ErrIDSpaceExhausted when that ID would not fit in an
// int32.
func nextID(n int) (int32, error) {
	if n < 0 || n > math.MaxInt32 {
		return 0, ErrIDSpaceExhausted
	}
	return int32(n), nil
}

func validCoord(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func validPoint(p Point) bool { return validCoord(p.X) && validCoord(p.Y) }

// validRect accepts only well-formed, non-degenerate obstacles: both sides
// must have strictly positive extent. Zero-area rectangles have an empty
// open interior, so they could never block anything, yet their coincident
// edges and corners violate the occlusion code's assumption that edge
// endpoints are distinct. Open and InsertObstacle share this predicate, so
// they accept exactly the same obstacle set.
func validRect(r Rect) bool {
	return validCoord(r.MinX) && validCoord(r.MinY) &&
		validCoord(r.MaxX) && validCoord(r.MaxY) &&
		r.MinX < r.MaxX && r.MinY < r.MaxY
}

// grownCopy returns a copy of s with spare capacity for future appends.
func grownCopy[T any](s []T) []T {
	c := 2 * len(s)
	if c < 8 {
		c = 8
	}
	out := make([]T, len(s), c)
	copy(out, s)
	return out
}

// cloneTombs copies a tombstone map and adds one entry. The published map is
// never modified in place: versions share it until the next deletion. The
// full copy makes each delete O(total deletions); acceptable while
// deletions are rare relative to queries — a per-version overlay chain (or
// compaction once tombstones dominate) is the upgrade path if delete-heavy
// workloads appear.
func cloneTombs(m map[int32]bool, add int32) map[int32]bool {
	nm := make(map[int32]bool, len(m)+1)
	for k := range m {
		nm[k] = true
	}
	nm[add] = true
	return nm
}

// pointBox is the change box of a point mutation.
func pointBox(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// applyOne commits m as a one-member tick and returns the member's verdict:
// the durable tier's error when the handle is unwritable or latched, else
// the member's own validation failure.
func (db *DB) applyOne(m Mutation) (int32, error) {
	res, err := db.Apply([]Mutation{m})
	if err != nil {
		return 0, err
	}
	return res.Results[0].ID, res.Results[0].Err
}

// InsertPoint adds a data point and returns its PID. The point must not lie
// strictly inside any obstacle. The insertion becomes visible to queries
// that start after InsertPoint returns; in-flight queries and existing
// clones keep their snapshot.
func (db *DB) InsertPoint(p Point) (int32, error) {
	return db.applyOne(Mutation{Op: MutInsertPoint, P: p})
}

// DeletePoint removes the point with the given PID. It reports whether the
// point existed (deleting twice returns false).
func (db *DB) DeletePoint(pid int32) bool {
	_, err := db.applyOne(Mutation{Op: MutDeletePoint, ID: pid})
	return err == nil
}

// InsertObstacle adds an obstacle and returns its ID. The rectangle must
// have strictly positive width and height (the same rule Open enforces) and
// no existing data point may lie strictly inside it.
func (db *DB) InsertObstacle(r Rect) (int32, error) {
	return db.applyOne(Mutation{Op: MutInsertObstacle, R: r})
}

// DeleteObstacle removes the obstacle with the given ID. It reports whether
// the obstacle existed.
func (db *DB) DeleteObstacle(oid int32) bool {
	_, err := db.applyOne(Mutation{Op: MutDeleteObstacle, ID: oid})
	return err == nil
}
