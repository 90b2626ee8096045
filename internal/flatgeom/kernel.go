package flatgeom

import "connquery/internal/geom"

// rebuildTail caps the linear overflow tail of a Kernel: obstacle
// insertions extend a kernel by sharing the parent version's BVH and
// scanning the appended obstacles linearly, and only when the tail outgrows
// this bound is the BVH rebuilt over the full set. Visibility queries touch
// every tail obstacle, so the bound keeps the linear part a few cache lines
// while insert-heavy version chains amortize the O(n log n) build.
const rebuildTail = 64

// Kernel is the immutable per-version view of the obstacle set: a BVH over
// the first base obstacles plus a linear tail for obstacles appended since
// the BVH was built. Obstacle IDs are indexes into all, matching the
// engine's R-tree item IDs; deleted obstacles stay in the kernel harmlessly
// because queries only ever test obstacles they marked as loaded.
type Kernel struct {
	bvh  *BVH
	all  []geom.Rect // full ID-indexed obstacle slice, aliased not copied
	base int         // obstacles [0, base) are in the BVH; [base, len) are the tail
}

// NewKernel builds a kernel over the full obstacle slice. The slice is
// aliased: callers must treat the first len(obstacles) entries as immutable
// (the MVCC store is append-only, so this holds by construction).
func NewKernel(obstacles []geom.Rect) *Kernel {
	return &Kernel{bvh: NewBVH(obstacles), all: obstacles, base: len(obstacles)}
}

// Extend returns a kernel over the grown obstacle slice: it shares the
// receiver's BVH while the appended tail stays under rebuildTail and
// rebuilds otherwise. obstacles must be the receiver's slice plus appended
// entries (MVCC append-only growth).
func (k *Kernel) Extend(obstacles []geom.Rect) *Kernel {
	if len(obstacles)-k.base > rebuildTail {
		return NewKernel(obstacles)
	}
	return &Kernel{bvh: k.bvh, all: obstacles, base: k.base}
}

// NumObstacles returns the size of the ID space (including deleted IDs).
func (k *Kernel) NumObstacles() int { return len(k.all) }

// Rect returns the obstacle with the given ID.
func (k *Kernel) Rect(id int32) geom.Rect { return k.all[id] }

// Blocked reports whether any marked obstacle blocks the sight line
// (ax, ay)-(bx, by) of length segLen. Exact: identical to testing
// geom.BlocksSegment against every marked obstacle.
func (k *Kernel) Blocked(m *Marks, ax, ay, bx, by, segLen float64) bool {
	if k.bvh.Blocked(m, ax, ay, bx, by, segLen) {
		return true
	}
	for id := k.base; id < len(k.all); id++ {
		if !m.Has(int32(id)) {
			continue
		}
		r := k.all[id]
		if geom.BlocksSegLen(r.MinX, r.MinY, r.MaxX, r.MaxY, ax, ay, bx, by, segLen) {
			return true
		}
	}
	return false
}

// AppendBlockers appends the ID of every obstacle in the kernel — marked or
// not, including deleted IDs — that blocks the sight line of length segLen,
// and returns dst. See BVH.AppendBlockers for the caching contract.
func (k *Kernel) AppendBlockers(dst []int32, ax, ay, bx, by, segLen float64) []int32 {
	dst = k.bvh.AppendBlockers(dst, ax, ay, bx, by, segLen)
	for id := k.base; id < len(k.all); id++ {
		r := &k.all[id]
		if geom.BlocksSegLen(r.MinX, r.MinY, r.MaxX, r.MaxY, ax, ay, bx, by, segLen) {
			dst = append(dst, int32(id))
		}
	}
	return dst
}

// AppendIntersecting appends every marked obstacle intersecting w to dst
// (geom.Rect.Intersects semantics) and returns it.
func (k *Kernel) AppendIntersecting(dst []geom.Rect, m *Marks, w geom.Rect) []geom.Rect {
	dst = k.bvh.AppendIntersecting(dst, m, w)
	for id := k.base; id < len(k.all); id++ {
		if m.Has(int32(id)) && k.all[id].Intersects(w) {
			dst = append(dst, k.all[id])
		}
	}
	return dst
}
