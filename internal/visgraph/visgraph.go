package visgraph

import (
	"connquery/internal/flatgeom"
	"connquery/internal/geom"
	"connquery/internal/rtree"
)

// NodeID identifies a graph node. IDs of removed transient nodes are
// recycled.
type NodeID int32

// Invalid is the NodeID returned for "no node" (e.g. Dijkstra predecessors
// of unreachable nodes).
const Invalid NodeID = -1

// NodeKind classifies graph nodes.
type NodeKind uint8

const (
	// KindCorner is an obstacle corner vertex.
	KindCorner NodeKind = iota
	// KindAnchor is a persistent query-segment endpoint (S or E).
	KindAnchor
	// KindTransient is a temporarily inserted data point.
	KindTransient
)

type edgeTo struct {
	to NodeID
	w  float64
	// vx, vy inline the target node's coordinates so obstacle-insertion
	// invalidation scans the adjacency list without a random pts gather per
	// edge; w doubles as the exact segment length for the blocking test.
	vx, vy float64
	// gto inlines the target node's kernel corner index (gidx[to], -1 for
	// non-corner targets) so batch invalidation can consult the kernel's
	// corner-pair table without a gather.
	gto int32
}

// Graph is a local visibility graph. Not safe for concurrent use.
type Graph struct {
	pts   []geom.Point
	kinds []NodeKind
	alive []bool
	// gidx[u] is node u's kernel corner index (4*obstacleID + vertex, per
	// geom.Rect.Vertices order) when u is a corner loaded through a kernel,
	// else -1. It keys the kernel's precomputed corner-pair table.
	gidx []int32
	adj  [][]edgeTo
	// adjBox[u] is a conservative bounding box of u and every neighbor it has
	// (ever had, until recomputed): the MBR of every edge segment incident to
	// u is contained in it, so AddObstacle can skip u's whole adjacency list
	// when the box misses the new obstacle.
	adjBox []geom.Rect
	free   []NodeID

	obstacles []geom.Rect
	// obsIndex is the per-graph obstacle R-tree, built lazily on the first
	// obstacle insertion. It stays nil when a shared flat kernel serves the
	// obstacle-set queries instead (see SetKernel).
	obsIndex *rtree.Tree
	// kern, when non-nil, is the immutable per-version geometry kernel;
	// marks records which of its obstacle IDs this graph has loaded.
	kern  *flatgeom.Kernel
	marks flatgeom.Marks
	// shared, when non-nil, is a region-scoped corner-pair certificate table
	// built over kern by the execution planner and shared read-only across
	// concurrent queries (see SetShared). Consulted only when the kernel's
	// own full table is absent; pairs it does not cover fall back to the
	// exact kernel test, so verdicts never change — only their cost.
	shared  *flatgeom.CornerTable
	version int
	// mutations counts every structural change (nodes, edges, obstacles,
	// resets); a Search snapshot is valid only while it is unchanged.
	mutations uint64

	// check, when set, is the cancellation poll consulted by Poll and by the
	// Dijkstra settle loop (see cancel.go).
	check func() error

	// search is the recycled Dijkstra state handed out by NewSearch.
	search Search
	// occ is the recycled angular occlusion index used by AddPoint.
	occ occIndex
	// obsScratch backs ObstaclesNear results between calls.
	obsScratch []geom.Rect
	// batchScratch backs AddObstacleIDs' rectangle batch between calls.
	batchScratch []geom.Rect
	// batchMarks holds just the current AddObstacleIDs batch so the
	// corner-table invalidation tests membership against the batch alone.
	batchMarks flatgeom.Marks

	// par, when non-nil, is the intra-query worker pool AddObstacleIDs fans
	// its corner sight-line batches across (see parallel.go); the remaining
	// fields are its recycled scratch. The graph stays single-writer: pool
	// lanes only read it and write disjoint verdict slabs.
	par     *WorkerPool
	parSegs [][]float64 // per-corner verdict slabs, indexed by candidate ID
	parOcc  []*occIndex // per-lane occlusion indexes
	parIDs  []NodeID    // predicted batch-corner node IDs
	parPts  []geom.Point
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// SetKernel hands the graph a shared, immutable flat-geometry kernel for the
// obstacle set of the version it is about to query. With a kernel set,
// obstacles must be inserted via AddObstacleID; Visible and ObstaclesNear
// then answer from the kernel's BVH filtered by this graph's loaded-obstacle
// marks, and no per-query R-tree is ever built. Call after Reset (Reset
// detaches the kernel).
func (g *Graph) SetKernel(k *flatgeom.Kernel) {
	g.kern = k
	g.marks.Reset(k.NumObstacles())
}

// SetShared attaches a region-scoped corner-pair table built over the
// attached kernel (same version, same obstacle ID space). Call after
// SetKernel; Reset detaches it. The table is read-only and may be shared by
// any number of concurrent graphs. When the kernel has its own full table
// the shared one is ignored (the full table already answers every pair).
func (g *Graph) SetShared(t *flatgeom.CornerTable) { g.shared = t }

// cornerTable resolves the table serving corner-pair sight-line verdicts:
// the kernel's full table when the scene is small enough for one, else the
// planner-shared region table, else nil.
func (g *Graph) cornerTable() *flatgeom.CornerTable {
	if g.kern == nil {
		return nil
	}
	if t := g.kern.Corners(); t != nil {
		return t
	}
	return g.shared
}

// Reset empties the graph for reuse, retaining node, adjacency and search
// buffer capacity so a pooled graph answers subsequent queries with few
// allocations. All node IDs and outstanding Searches are invalidated.
func (g *Graph) Reset() {
	g.pts = g.pts[:0]
	g.kinds = g.kinds[:0]
	g.alive = g.alive[:0]
	g.gidx = g.gidx[:0]
	g.adjBox = g.adjBox[:0]
	g.free = g.free[:0]
	g.obstacles = g.obstacles[:0]
	g.obsIndex = nil
	g.kern = nil
	g.shared = nil
	// Shrink the outer adjacency slice but keep both its backing array and
	// every inner slice's capacity: allocNode re-extends within capacity and
	// reuses the retired per-node edge storage.
	g.adj = g.adj[:0]
	g.version++
	g.mutations++
}

// NumNodes returns the number of live nodes (the paper's |SVG| metric when
// only corner and anchor nodes are present).
func (g *Graph) NumNodes() int {
	n := 0
	for _, a := range g.alive {
		if a {
			n++
		}
	}
	return n
}

// NumCornerNodes returns the number of obstacle-corner nodes, the |SVG|
// figure reported by the paper (4 x number of obstacles inserted).
func (g *Graph) NumCornerNodes() int {
	n := 0
	for i, a := range g.alive {
		if a && g.kinds[i] == KindCorner {
			n++
		}
	}
	return n
}

// NumObstacles returns the number of inserted obstacles.
func (g *Graph) NumObstacles() int { return len(g.obstacles) }

// Obstacles returns the inserted obstacle rectangles. The slice is shared;
// callers must not modify it.
func (g *Graph) Obstacles() []geom.Rect { return g.obstacles }

// Version increments whenever the obstacle set changes; callers use it to
// invalidate cached visibility regions.
func (g *Graph) Version() int { return g.version }

// Point returns the location of node id.
func (g *Graph) Point(id NodeID) geom.Point { return g.pts[id] }

// Kind returns the node classification of id.
func (g *Graph) Kind(id NodeID) NodeKind { return g.kinds[id] }

// Visible reports whether the segment a-b is unobstructed by any inserted
// obstacle. The kernel BVH (or, without a kernel, the obstacle R-tree)
// prunes the candidate set; the verdict matches a linear BlocksSegment scan.
func (g *Graph) Visible(a, b geom.Point) bool {
	if g.kern != nil {
		dx, dy := b.X-a.X, b.Y-a.Y
		d2 := dx*dx + dy*dy
		return !g.kern.Blocked(&g.marks, a.X, a.Y, b.X, b.Y, geom.SegLen(dx, dy, d2))
	}
	if g.obsIndex == nil {
		return true
	}
	s := geom.Seg(a, b)
	ok := true
	g.obsIndex.SearchSegment(s, func(it rtree.Item) bool {
		if g.obstacles[it.ID].BlocksSegment(s) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// ObstaclesNear returns the inserted obstacles whose rectangles intersect w.
// The core algorithm uses this to bound the obstacle set passed to
// visible-region computation. The returned slice is a scratch buffer owned
// by the graph and is overwritten by the next call.
func (g *Graph) ObstaclesNear(w geom.Rect) []geom.Rect {
	out := g.AppendObstaclesNear(g.obsScratch[:0], w)
	g.obsScratch = out
	return out
}

// AddPoint inserts a node at p with the given kind and connects it to every
// visible live node. It returns the new node's ID.
//
// Candidate pruning: instead of running an obstacle-index search per
// candidate node, AddPoint builds an angular occlusion index of the current
// obstacle set around p once, and each candidate first consults it — only
// obstacles whose angular interval contains the candidate's direction and
// whose minimum distance does not exceed the candidate's are ever tested
// exactly. Candidates outside every occluder's cone connect with no exact
// test at all. The index is conservative, so the resulting edge set is
// identical to the brute-force scan.
func (g *Graph) AddPoint(p geom.Point, kind NodeKind) NodeID {
	return g.addPoint(p, kind, -1)
}

// addPoint is AddPoint with the node's kernel corner index (-1 for
// non-corner nodes). Corner insertions on a table-backed kernel skip the
// occlusion index entirely: each corner-corner candidate is decided by a
// few Marks membership tests against the precomputed full-set blocker list
// for exactly the directed segment (p -> candidate) the occlusion path
// would test, so the edge set — and its append order — is identical.
func (g *Graph) addPoint(p geom.Point, kind NodeKind, gi int32) NodeID {
	id := g.allocNode(p, kind, gi)
	g.mutations++
	var tbl *flatgeom.CornerTable
	if gi >= 0 {
		// A table that does not cover this corner at all (a region-scoped
		// shared table, with the corner outside the build region) answers no
		// pair, so take the occlusion path as if no table existed.
		if tbl = g.cornerTable(); tbl != nil && !tbl.Covers(gi) {
			tbl = nil
		}
	}
	if tbl == nil {
		g.occ.build(p, g.obstacles)
		if g.par != nil && len(g.pts) >= parMinCandidates {
			g.addPointParallel(id, p, gi)
			return id
		}
	}
	for other := range g.pts {
		oid := NodeID(other)
		if oid == id || !g.alive[other] {
			continue
		}
		q := g.pts[other]
		dx, dy := q.X-p.X, q.Y-p.Y
		d2 := dx*dx + dy*dy
		segLen := -1.0
		if tbl != nil {
			if blocked, ok := g.pairBlocked(tbl, gi, g.gidx[other]); ok {
				if blocked {
					continue
				}
			} else {
				// Anchor/transient candidates (a handful per corner) and
				// corner pairs a region-scoped table leaves uncovered take the
				// exact kernel test, which matches the occlusion-path verdict.
				segLen = geom.SegLen(dx, dy, d2)
				if g.kern.Blocked(&g.marks, p.X, p.Y, q.X, q.Y, segLen) {
					continue
				}
			}
		} else if g.occ.blocked(q, dx, dy, d2, &segLen, g.obstacles) {
			continue
		}
		// One square root per surviving candidate, shared with the exact
		// tests: geom.SegLen(dx, dy, d2) is bit-identical to geom.Dist(p, q).
		if segLen < 0 {
			segLen = geom.SegLen(dx, dy, d2)
		}
		w := segLen
		g.adj[id] = append(g.adj[id], edgeTo{to: oid, w: w, vx: q.X, vy: q.Y, gto: g.gidx[other]})
		g.adj[other] = append(g.adj[other], edgeTo{to: id, w: w, vx: p.X, vy: p.Y, gto: gi})
		g.adjBox[id] = expandRect(g.adjBox[id], q)
		g.adjBox[other] = expandRect(g.adjBox[other], p)
	}
	return id
}

// pairBlocked consults tbl for the directed corner pair (gi, gj): ok is
// false when gj is not a corner or a region-scoped table leaves the pair
// uncovered, and the caller must decide the pair geometrically.
func (g *Graph) pairBlocked(tbl *flatgeom.CornerTable, gi, gj int32) (blocked, ok bool) {
	if gj < 0 {
		return false, false
	}
	return tbl.PairVerdict(&g.marks, gi, gj)
}

// RemovePoint deletes a transient node and all its edges; the slot is
// recycled. Removing anchors or corner nodes is a programming error.
func (g *Graph) RemovePoint(id NodeID) {
	if g.kinds[id] != KindTransient {
		panic("visgraph: RemovePoint on non-transient node")
	}
	g.mutations++
	for _, e := range g.adj[id] {
		nbr := g.adj[e.to]
		for i := range nbr {
			if nbr[i].to == id {
				nbr[i] = nbr[len(nbr)-1]
				g.adj[e.to] = nbr[:len(nbr)-1]
				break
			}
		}
	}
	g.adj[id] = g.adj[id][:0]
	g.alive[id] = false
	g.free = append(g.free, id)
}

// AddObstacle inserts a rectangular obstacle: existing edges crossing its
// interior are removed, then its four corners join the graph. Corner nodes
// are permanent for the life of the graph. With a kernel attached, use
// AddObstacleID instead so the loaded set is tracked by kernel ID.
func (g *Graph) AddObstacle(r geom.Rect) {
	if g.kern != nil {
		panic("visgraph: AddObstacle on a kernel-backed graph; use AddObstacleID")
	}
	g.addObstacle(r, -1)
}

// AddObstacleID inserts the obstacle with the given kernel ID (its rectangle
// is read from the kernel) and marks it loaded for the kernel-backed Visible
// and ObstaclesNear paths.
func (g *Graph) AddObstacleID(id int32) {
	g.addObstacle(g.kern.Rect(id), id)
}

// AddObstacleIDs inserts a batch of obstacles by kernel ID. The resulting
// graph — adjacency content and per-node edge order included — is identical
// to calling AddObstacleID for each ID in order, but the edge-invalidation
// scan over every node's adjacency list runs once per batch instead of once
// per obstacle.
//
// Why the collapsed pass is exact: between the sequential insertions of a
// batch no reads of the graph happen, so only the final state matters. An
// existing edge survives the sequence iff no batch rectangle blocks it —
// exactly what the single pass tests — and in-place compaction preserves
// survivor order either way. An edge that sequential insertion would create
// from an early obstacle's corner and a later obstacle would then delete is
// instead never created: here every corner is linked after the whole batch
// is registered, so AddPoint's candidate test against the full set returns
// the edge's final verdict directly. Corners are linked in batch order, so
// surviving edges append in the same chronological order as sequentially.
//
// A batch can be thousands of obstacles — seconds of work — so the serial
// loops poll for cancellation once per rectangle. An abort leaves the graph
// half-updated; the query state that owns it resets the graph before its
// next use.
func (g *Graph) AddObstacleIDs(ids []int32) {
	if len(ids) == 0 {
		return
	}
	rects := g.batchScratch[:0]
	for _, id := range ids {
		rects = append(rects, g.kern.Rect(id))
	}
	g.batchScratch = rects

	// 1. Invalidate blocked edges, all before any corner is linked. An edge
	// dies iff some batch rectangle blocks it — the union of per-rectangle
	// removals no matter the order, with survivor order preserved by
	// in-place compaction either way. With a corner-pair table, one pass
	// over the adjacency lists decides each corner-corner edge by
	// membership of its precomputed blocker list in the batch —
	// bit-identical to testing every batch rectangle geometrically, since
	// the lists were built with exactly those BlocksSegLen calls. Without a
	// table, one gated geometric pass per rectangle: the per-rectangle
	// adjacency-box gate skips most nodes outright, which a batch-union box
	// would be too large to do. A region-scoped shared table serves the same
	// pass; pairs it leaves uncovered are decided geometrically in place.
	if tbl := g.cornerTable(); tbl != nil {
		g.batchMarks.Reset(g.kern.NumObstacles())
		for _, id := range ids {
			g.batchMarks.Set(id)
		}
		g.invalidateEdgesBatch(tbl, rects)
	} else if g.par != nil && len(g.adj) >= parMinNodes {
		// Node-major parallel form of the per-rectangle passes below: each
		// node's (gate, scan, compact, box-recompute) sequence touches only
		// that node's state, so running nodes on pool lanes — each lane
		// walking the batch rectangles in order for its nodes — produces
		// bit-identical lists and boxes (see invalidateEdgesParallel).
		g.invalidateEdgesParallel(rects)
	} else {
		for _, r := range rects {
			g.Poll()
			g.invalidateEdges(r)
		}
	}
	// 2. Register the whole batch before linking any corner, bumping the
	// counters once per obstacle as the sequential insertions would.
	for i, r := range rects {
		g.mutations++
		g.obstacles = append(g.obstacles, r)
		g.marks.Set(ids[i])
		g.version++
	}
	// 3. Link the corners in batch order. With a worker pool attached (and
	// no corner table, which already answers per pair in a few loads), the
	// sight-line verdicts for the whole batch are computed concurrently and
	// applied serially — bit-identical to this loop (see parallel.go).
	if g.par != nil && g.cornerTable() == nil && len(rects) > 1 {
		g.linkCornersParallel(ids, rects)
		return
	}
	for i, r := range rects {
		g.Poll()
		gBase := 4 * ids[i]
		for k, c := range r.Vertices() {
			g.addPoint(c, KindCorner, gBase+int32(k))
		}
	}
}

func (g *Graph) addObstacle(r geom.Rect, id int32) {
	g.mutations++
	// 1. Invalidate blocked edges.
	g.invalidateEdges(r)
	// 2. Register the obstacle before linking corners so corner-corner
	// visibility accounts for the new interior too.
	oid := int32(len(g.obstacles))
	g.obstacles = append(g.obstacles, r)
	if id >= 0 {
		g.marks.Set(id)
	} else {
		if g.obsIndex == nil {
			g.obsIndex = rtree.New(rtree.Options{})
		}
		g.obsIndex.Insert(rtree.ObstacleItem(oid, r))
	}
	g.version++
	// 3. Link the corners.
	for k, c := range r.Vertices() {
		gi := int32(-1)
		if id >= 0 {
			gi = 4*id + int32(k)
		}
		g.addPoint(c, KindCorner, gi)
	}
}

// invalidateEdges removes every edge that crosses r's open interior. Nodes
// whose adjacency bounding box misses the obstacle are skipped wholesale;
// for the rest, the per-edge bounding-box reject handles most surviving
// edges without divisions, and lists that lose no edge are left untouched
// (no writes at all).
func (g *Graph) invalidateEdges(r geom.Rect) {
	for u := range g.adj {
		list := g.adj[u]
		if len(list) == 0 || !g.alive[u] || !g.adjBox[u].Intersects(r) {
			continue
		}
		pu := g.pts[u]
		w := 0
		removed := false
		for _, e := range list {
			// The inlined e.vx/e.vy spare a pts gather, and the stored weight
			// is the exact segment length, so the blocking test runs with no
			// square root (bit-identical to BlocksSegment on the segment).
			if (pu.X <= r.MinX && e.vx <= r.MinX) || (pu.X >= r.MaxX && e.vx >= r.MaxX) ||
				(pu.Y <= r.MinY && e.vy <= r.MinY) || (pu.Y >= r.MaxY && e.vy >= r.MaxY) {
				// Edge cannot enter the open interior.
			} else if geom.BlocksSegLen(r.MinX, r.MinY, r.MaxX, r.MaxY, pu.X, pu.Y, e.vx, e.vy, e.w) {
				removed = true
				continue
			}
			if removed {
				list[w] = e
			}
			w++
		}
		if removed {
			g.adj[u] = list[:w]
			// Shrunk lists get an exact adjacency box again.
			box := geom.Rect{MinX: pu.X, MinY: pu.Y, MaxX: pu.X, MaxY: pu.Y}
			for _, e := range list[:w] {
				box = expandRect(box, geom.Point{X: e.vx, Y: e.vy})
			}
			g.adjBox[u] = box
		}
	}
}

// invalidateEdgesBatch removes every edge blocked by some rectangle of the
// current batch (held in g.batchMarks), in one pass over the adjacency
// lists. Corner-corner edges are decided by the table: edge (u, v) is
// blocked by batch rectangle r exactly when r's ID is on the precomputed
// full-set blocker list for the directed segment u -> v — the list entry
// was produced by the very BlocksSegLen(r, pu, pv, w) call the geometric
// pass would make, with w equal to the stored weight (SegLen is sign-
// insensitive in its deltas), so the kill set is bit-identical. Edges with
// a non-corner endpoint — and corner pairs a region-scoped shared table
// leaves uncovered — fall back to the geometric per-rectangle test. The
// union-box screens are conservative exactly as in invalidateEdges: a
// segment on one side of the union box's slab is on that side of every
// batch rectangle's slab.
func (g *Graph) invalidateEdgesBatch(tbl *flatgeom.CornerTable, rects []geom.Rect) {
	ub := rects[0]
	for _, r := range rects[1:] {
		ub = ub.Union(r)
	}
	for u := range g.adj {
		list := g.adj[u]
		if len(list) == 0 || !g.alive[u] || !g.adjBox[u].Intersects(ub) {
			continue
		}
		pu := g.pts[u]
		gu := g.gidx[u]
		w := 0
		removed := false
		for _, e := range list {
			dead := false
			decided := false
			if (pu.X <= ub.MinX && e.vx <= ub.MinX) || (pu.X >= ub.MaxX && e.vx >= ub.MaxX) ||
				(pu.Y <= ub.MinY && e.vy <= ub.MinY) || (pu.Y >= ub.MaxY && e.vy >= ub.MaxY) {
				// Edge cannot enter any batch rectangle's open interior.
				decided = true
			} else if tbl != nil && gu >= 0 && e.gto >= 0 {
				dead, decided = tbl.PairVerdict(&g.batchMarks, gu, e.gto)
			}
			if !decided {
				for _, r := range rects {
					if (pu.X <= r.MinX && e.vx <= r.MinX) || (pu.X >= r.MaxX && e.vx >= r.MaxX) ||
						(pu.Y <= r.MinY && e.vy <= r.MinY) || (pu.Y >= r.MaxY && e.vy >= r.MaxY) {
						continue
					}
					if geom.BlocksSegLen(r.MinX, r.MinY, r.MaxX, r.MaxY, pu.X, pu.Y, e.vx, e.vy, e.w) {
						dead = true
						break
					}
				}
			}
			if dead {
				removed = true
				continue
			}
			if removed {
				list[w] = e
			}
			w++
		}
		if removed {
			g.adj[u] = list[:w]
			box := geom.Rect{MinX: pu.X, MinY: pu.Y, MaxX: pu.X, MaxY: pu.Y}
			for _, e := range list[:w] {
				box = expandRect(box, geom.Point{X: e.vx, Y: e.vy})
			}
			g.adjBox[u] = box
		}
	}
}

// expandRect grows r to cover p. Unlike geom.Rect.ExpandPoint it assumes r
// is non-empty and compiles to four branches — it runs once per visibility
// edge.
func expandRect(r geom.Rect, p geom.Point) geom.Rect {
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.X > r.MaxX {
		r.MaxX = p.X
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.Y > r.MaxY {
		r.MaxY = p.Y
	}
	return r
}

// allocNode reserves a node slot (recycling freed ones).
func (g *Graph) allocNode(p geom.Point, kind NodeKind, gi int32) NodeID {
	if n := len(g.free); n > 0 {
		id := g.free[n-1]
		g.free = g.free[:n-1]
		g.pts[id] = p
		g.kinds[id] = kind
		g.alive[id] = true
		g.gidx[id] = gi
		g.adj[id] = g.adj[id][:0]
		g.adjBox[id] = geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		return id
	}
	id := NodeID(len(g.pts))
	g.pts = append(g.pts, p)
	g.kinds = append(g.kinds, kind)
	g.alive = append(g.alive, true)
	g.gidx = append(g.gidx, gi)
	g.adjBox = append(g.adjBox, geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	if len(g.adj) < cap(g.adj) {
		// Re-extend over a slot retired by Reset, reusing its edge storage.
		g.adj = g.adj[:len(g.adj)+1]
		g.adj[id] = g.adj[id][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	return id
}

// ShortestPaths runs Dijkstra from src and returns distance and predecessor
// slices indexed by NodeID. Unreachable nodes have +Inf distance and Invalid
// predecessor. The returned slices are scratch buffers owned by the graph
// and are overwritten by the next call (or the next NewSearch).
func (g *Graph) ShortestPaths(src NodeID) (dist []float64, prev []NodeID) {
	s := g.NewSearch(src)
	s.SettleAll()
	return s.dist, s.prev
}

// PathTo reconstructs the node sequence src..dst from a predecessor slice
// returned by ShortestPaths(src). It returns nil when dst is unreachable.
func PathTo(prev []NodeID, src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	if prev[dst] == Invalid {
		return nil
	}
	var rev []NodeID
	for at := dst; at != Invalid; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Distance runs a targeted Dijkstra from src that stops as soon as dst is
// settled and returns the shortest obstructed distance (+Inf if
// unreachable). It reuses the graph's search scratch, so it allocates only
// on graph growth.
func (g *Graph) Distance(src, dst NodeID) float64 {
	s := g.NewSearch(src)
	s.SettleTargets(dst)
	return s.dist[dst]
}
