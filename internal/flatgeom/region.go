package flatgeom

import "connquery/internal/geom"

// This file is the region-scoped corner-pair certificate table: a table
// covering only the corners of the obstacles intersecting one build region,
// so the concurrent queries of a spatial hot spot can share precomputed
// sight-line verdicts instead of each deciding them through the BVH. Each
// covered pair's blocker list is computed over the FULL obstacle set
// (Kernel.AppendBlockers searches the whole BVH plus the linear tail), so
// subset verdicts stay exact no matter where a query's retrieval wanders;
// the region only chooses WHICH pairs are tabulated, never weakens a
// verdict. Pairs outside the covered set report "uncovered" through
// CornerTable.PairVerdict and fall back to the caller's exact geometry.

// CornerTable is a region-scoped corner-pair certificate table of one kernel
// version (see Kernel.RegionTable): for every ordered pair (i, j) of covered
// obstacle corners it stores the IDs of every obstacle in the kernel that
// blocks the sight line corner(i) -> corner(j), computed over the FULL
// obstacle set with geom.BlocksSegLen. Corner g of obstacle id has kernel
// corner index 4*id + g, matching geom.Rect.Vertices order.
//
// Because blocking is monotone in the obstacle set (the AppendBlockers
// contract), the visibility verdict for any loaded subset is "some listed
// ID is loaded" — a handful of membership tests against the query's Marks,
// with no geometry at all. The lists are directed: cell (i, j) is built
// from the segment corner(i) -> corner(j) with exactly the arguments the
// sequential BlocksSegLen scan would use in that direction, so subset
// verdicts are bit-identical to the scan they replace, including any
// ulp-level direction asymmetry of the underlying predicate.
type CornerTable struct {
	n       int
	offsets []int32 // n*n+1 prefix offsets into ids; cell (i,j) = i*n+j
	ids     []int32 // concatenated full-set blocker lists
	// local maps a kernel corner index to its row in the table, -1 for
	// corners outside the covered set.
	local []int32
}

// row maps a kernel corner index to its table row, -1 when the table does
// not cover it.
func (t *CornerTable) row(g int32) int32 {
	if int(g) >= len(t.local) {
		return -1
	}
	return t.local[g]
}

// Covers reports whether the table has rows for corner g's pairs.
func (t *CornerTable) Covers(g int32) bool { return t.row(g) >= 0 }

// PairVerdict reports whether the table covers the ordered corner pair
// (gi, gj) (ok), and for a covered pair whether any obstacle in m blocks it:
// bit-identical to testing geom.BlocksSegLen for every obstacle in m against
// the directed segment corner(gi) -> corner(gj). Uncovered pairs must be
// decided by the caller's exact geometric path.
func (t *CornerTable) PairVerdict(m *Marks, gi, gj int32) (blocked, ok bool) {
	li, lj := t.row(gi), t.row(gj)
	if li < 0 || lj < 0 {
		return false, false
	}
	c := int(li)*t.n + int(lj)
	for _, id := range t.ids[t.offsets[c]:t.offsets[c+1]] {
		if m.Has(id) {
			return true, true
		}
	}
	return false, true
}

// Bounds returns the bounding box of the kernel's whole obstacle set (BVH
// root box united with the linear tail), or an inverted empty rectangle for
// an obstacle-free kernel.
func (k *Kernel) Bounds() geom.Rect {
	out := geom.RectFromPoints() // inverted empty
	if len(k.bvh.nodes) > 0 {
		nd := &k.bvh.nodes[0]
		out = geom.Rect{MinX: nd.minX, MinY: nd.minY, MaxX: nd.maxX, MaxY: nd.maxY}
	}
	for id := k.base; id < len(k.all); id++ {
		out = out.Union(k.all[id])
	}
	return out
}

// AppendIntersectingIDs appends the ID of every obstacle in the kernel —
// marked or not, including deleted IDs — whose rectangle intersects w
// (geom.Rect.Intersects semantics) and returns dst. Order follows the BVH
// leaf layout, then the tail.
func (k *Kernel) AppendIntersectingIDs(dst []int32, w geom.Rect) []int32 {
	dst = k.bvh.AppendIntersectingIDs(dst, w)
	for id := k.base; id < len(k.all); id++ {
		if k.all[id].Intersects(w) {
			dst = append(dst, int32(id))
		}
	}
	return dst
}

// AppendIntersectingIDs is the unfiltered form of AppendIntersecting: every
// obstacle ID whose rectangle intersects w, regardless of marks.
func (b *BVH) AppendIntersectingIDs(dst []int32, w geom.Rect) []int32 {
	if len(b.nodes) == 0 {
		return dst
	}
	var stack [64]int32
	top := 0
	stack[0] = 0
	for top >= 0 {
		idx := stack[top]
		top--
		nd := &b.nodes[idx]
		if !(nd.minX <= w.MaxX+geom.Eps && w.MinX <= nd.maxX+geom.Eps &&
			nd.minY <= w.MaxY+geom.Eps && w.MinY <= nd.maxY+geom.Eps) {
			continue
		}
		if nd.b < 0 {
			top++
			stack[top] = nd.a
			top++
			stack[top] = idx + 1
			continue
		}
		qs := b.quads[4*nd.a : 4*(nd.a+nd.b)]
		ids := b.ids[nd.a : nd.a+nd.b]
		for i, id := range ids {
			q := qs[4*i : 4*i+4 : 4*i+4]
			if q[0] <= w.MaxX+geom.Eps && w.MinX <= q[2]+geom.Eps &&
				q[1] <= w.MaxY+geom.Eps && w.MinY <= q[3]+geom.Eps {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// RegionTable builds a corner-pair certificate table covering the corners of
// every obstacle intersecting region, with full-set blocker lists. It
// returns nil when the region covers no obstacle or contributes more than
// maxCorners corners — the quadratic build would then cost more than it
// amortizes. The returned table is immutable and safe for concurrent use,
// like the kernel itself; it must only be consulted with Marks sized for
// this kernel's ID space.
func (k *Kernel) RegionTable(region geom.Rect, maxCorners int) *CornerTable {
	idsIn := k.AppendIntersectingIDs(nil, region)
	n := 4 * len(idsIn)
	if n == 0 || n > maxCorners {
		return nil
	}
	local := make([]int32, 4*len(k.all))
	for i := range local {
		local[i] = -1
	}
	pts := make([]geom.Point, n)
	for li, id := range idsIn {
		v := k.all[id].Vertices()
		copy(pts[4*li:], v[:])
		for g := 0; g < 4; g++ {
			local[4*int(id)+g] = int32(4*li + g)
		}
	}
	t := &CornerTable{n: n, local: local, offsets: make([]int32, n*n+1)}
	ids := make([]int32, 0, 4*n)
	for i := 0; i < n; i++ {
		pi := pts[i]
		row := i * n
		for j := 0; j < n; j++ {
			if j != i {
				pj := pts[j]
				dx, dy := pj.X-pi.X, pj.Y-pi.Y
				ids = k.AppendBlockers(ids, pi.X, pi.Y, pj.X, pj.Y,
					geom.SegLen(dx, dy, dx*dx+dy*dy))
			}
			t.offsets[row+j+1] = int32(len(ids))
		}
	}
	t.ids = ids
	return t
}
