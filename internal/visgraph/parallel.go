package visgraph

import (
	"connquery/internal/geom"
	"connquery/internal/rtree"
)

// SetPool attaches a worker pool for intra-query parallelism; nil detaches.
// With a pool attached, AddObstacleIDs computes its corner sight-line
// verdicts on the pool (see linkCornersParallel); the graph remains
// single-writer — only the calling goroutine ever mutates it.
func (g *Graph) SetPool(p *WorkerPool) { g.par = p }

// Pool returns the attached worker pool, nil when sequential.
func (g *Graph) Pool() *WorkerPool { return g.par }

// linkCornersParallel is AddObstacleIDs step 3 on the worker pool: the
// sight-line verdict of every (new corner, candidate node) pair is a pure
// function of state that is frozen for the whole step — node positions
// (every batch corner's position is known before any is linked), liveness
// at step entry, and the fully registered obstacle set — so the verdicts
// for all corners are computed concurrently up front, and the graph
// mutations (node allocation, edge appends) then replay serially in exact
// batch order. The result is bit-identical to the sequential corner loop:
// each verdict comes from the same occlusion-index screen and exact tests
// over the same inputs, and the serial apply preserves node IDs, edge
// order, and adjacency-box growth.
//
// Candidate sets match the sequential loop by construction. When corner m
// is linked sequentially its candidates are the nodes alive at that moment:
// the nodes alive at step entry plus batch corners 0..m-1. Free-list
// recycling makes the IDs the corners will claim fully deterministic
// (allocNode pops the tail, then appends), so the IDs are predicted up
// front and each worker writes corner m's verdicts into a slab indexed by
// candidate node ID: -1 for blocked or not-a-candidate, else the exact
// segment length (bit-identical to geom.SegLen on the same deltas, shared
// with the screen exactly as in addPoint). The apply loop then walks the
// live nodes exactly like addPoint and reads the verdict instead of
// recomputing it.
func (g *Graph) linkCornersParallel(ids []int32, rects []geom.Rect) {
	nc := 4 * len(rects)
	// Predict the node IDs the batch corners will claim.
	base := len(g.pts)
	nFree := len(g.free)
	cids := g.parIDs[:0]
	for m := 0; m < nc; m++ {
		if m < nFree {
			cids = append(cids, g.free[nFree-1-m])
		} else {
			cids = append(cids, NodeID(base+m-nFree))
		}
	}
	g.parIDs = cids
	maxID := base + nc // upper bound on len(g.pts) during apply
	// Corner positions and kernel corner indexes, in link order.
	pts := g.parPts[:0]
	for _, r := range rects {
		v := r.Vertices()
		pts = append(pts, v[:]...)
	}
	g.parPts = pts

	// Per-corner verdict slabs and per-lane occlusion indexes.
	for len(g.parSegs) < nc {
		g.parSegs = append(g.parSegs, nil)
	}
	segs := g.parSegs[:nc]
	for m := range segs {
		if cap(segs[m]) < maxID {
			segs[m] = make([]float64, maxID)
		} else {
			segs[m] = segs[m][:maxID]
		}
	}
	for len(g.parOcc) < g.par.Workers() {
		g.parOcc = append(g.parOcc, &occIndex{})
	}

	g.par.Run(nc, func(w, m int) {
		p := pts[m]
		oi := g.parOcc[w]
		oi.build(p, g.obstacles)
		out := segs[m]
		// Nodes alive at step entry. Slots that are dead here — including
		// every free slot a batch corner will recycle — get the no-edge
		// sentinel; slots belonging to earlier batch corners are overwritten
		// below, and later corners' slots are never read while corner m is
		// applied (they are still dead then).
		for s := 0; s < base; s++ {
			if !g.alive[s] {
				out[s] = -1
				continue
			}
			out[s] = cornerVerdict(oi, p, g.pts[s], g.obstacles)
		}
		// Batch corners linked before m are candidates too.
		for k := 0; k < m; k++ {
			out[cids[k]] = cornerVerdict(oi, p, pts[k], g.obstacles)
		}
		if int(cids[m]) < base {
			out[cids[m]] = -1 // own recycled slot; addPoint's id check skips it
		}
	})

	// Serial apply in batch order: exactly addPoint with the verdict loop
	// replaced by the precomputed slab.
	for i := range rects {
		g.Poll()
		gBase := 4 * ids[i]
		for k := 0; k < 4; k++ {
			m := 4*i + k
			p := pts[m]
			gi := gBase + int32(k)
			out := segs[m]
			id := g.allocNode(p, KindCorner, gi)
			if id != cids[m] {
				panic("visgraph: parallel corner link ID prediction diverged")
			}
			g.mutations++
			for other := range g.pts {
				oid := NodeID(other)
				if oid == id || !g.alive[other] {
					continue
				}
				w := out[other]
				if w < 0 {
					continue
				}
				q := g.pts[other]
				g.adj[id] = append(g.adj[id], edgeTo{to: oid, w: w, vx: q.X, vy: q.Y, gto: g.gidx[other]})
				g.adj[other] = append(g.adj[other], edgeTo{to: id, w: w, vx: p.X, vy: p.Y, gto: gi})
				g.adjBox[id] = expandRect(g.adjBox[id], q)
				g.adjBox[other] = expandRect(g.adjBox[other], p)
			}
		}
	}
}

const (
	// parMinCandidates gates the parallel AddPoint verdict pass: below this
	// many node slots the fan-out overhead outweighs the work.
	parMinCandidates = 64
	// parMinNodes gates the parallel edge-invalidation pass likewise.
	parMinNodes = 128
	// parChunk is the slot-range claim size for both passes.
	parChunk = 64
)

// addPointParallel is addPoint's candidate loop on the worker pool: the
// freshly built occlusion index is shared read-only across the lanes, each
// lane decides the verdicts for a claimed range of node slots into a shared
// slab (disjoint ranges, so no two lanes touch a slot), and the edges are
// then appended serially in slot order — the exact sequence the sequential
// loop produces. The new node id and dead slots take the no-edge sentinel,
// mirroring the sequential loop's skip tests.
func (g *Graph) addPointParallel(id NodeID, p geom.Point, gi int32) {
	n := len(g.pts)
	if len(g.parSegs) == 0 {
		g.parSegs = append(g.parSegs, nil)
	}
	if cap(g.parSegs[0]) < n {
		g.parSegs[0] = make([]float64, n)
	} else {
		g.parSegs[0] = g.parSegs[0][:n]
	}
	out := g.parSegs[0]
	chunks := (n + parChunk - 1) / parChunk
	g.par.Run(chunks, func(_, c int) {
		lo := c * parChunk
		hi := min(lo+parChunk, n)
		for s := lo; s < hi; s++ {
			if NodeID(s) == id || !g.alive[s] {
				out[s] = -1
				continue
			}
			out[s] = cornerVerdict(&g.occ, p, g.pts[s], g.obstacles)
		}
	})
	for other := 0; other < n; other++ {
		w := out[other]
		if w < 0 {
			continue
		}
		oid := NodeID(other)
		q := g.pts[other]
		g.adj[id] = append(g.adj[id], edgeTo{to: oid, w: w, vx: q.X, vy: q.Y, gto: g.gidx[other]})
		g.adj[other] = append(g.adj[other], edgeTo{to: id, w: w, vx: p.X, vy: p.Y, gto: gi})
		g.adjBox[id] = expandRect(g.adjBox[id], q)
		g.adjBox[other] = expandRect(g.adjBox[other], p)
	}
}

// invalidateEdgesParallel runs AddObstacleIDs' per-rectangle geometric
// invalidation passes node-major on the worker pool. Every (node, rect)
// step of invalidateEdges — adjacency-box gate, side-screened scan,
// compaction, exact box recompute — reads and writes only that node's
// state, so walking the batch rectangles in order for each node yields
// bit-identical lists and boxes to walking the nodes for each rectangle,
// and distinct nodes can run on distinct lanes. An edge appears in both
// endpoints' lists and each copy is killed independently, exactly as in
// the sequential passes.
func (g *Graph) invalidateEdgesParallel(rects []geom.Rect) {
	n := len(g.adj)
	chunks := (n + parChunk - 1) / parChunk
	g.par.Run(chunks, func(_, c int) {
		lo := c * parChunk
		hi := min(lo+parChunk, n)
		for u := lo; u < hi; u++ {
			if !g.alive[u] {
				continue
			}
			pu := g.pts[u]
			for _, r := range rects {
				list := g.adj[u]
				if len(list) == 0 || !g.adjBox[u].Intersects(r) {
					continue
				}
				w := 0
				removed := false
				for _, e := range list {
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
					box := geom.Rect{MinX: pu.X, MinY: pu.Y, MaxX: pu.X, MaxY: pu.Y}
					for _, e := range list[:w] {
						box = expandRect(box, geom.Point{X: e.vx, Y: e.vy})
					}
					g.adjBox[u] = box
				}
			}
		}
	})
}

// cornerVerdict decides the sight line p -> q with corner p's occlusion
// index, mirroring addPoint's screen-then-exact path operation for
// operation: it returns -1 when blocked, else the exact segment length
// (geom.SegLen over the same deltas, computed by the screen when it already
// had to). Read-only on the graph; safe from pool lanes.
func cornerVerdict(oi *occIndex, p, q geom.Point, obstacles []geom.Rect) float64 {
	dx, dy := q.X-p.X, q.Y-p.Y
	d2 := dx*dx + dy*dy
	segLen := -1.0
	if oi.blocked(q, dx, dy, d2, &segLen, obstacles) {
		return -1
	}
	if segLen < 0 {
		segLen = geom.SegLen(dx, dy, d2)
	}
	return segLen
}

// AppendObstaclesNear is ObstaclesNear into a caller-provided buffer. It is
// read-only on the graph (no scratch sharing), so concurrent pool lanes may
// call it while the graph is otherwise quiescent; the append order matches
// ObstaclesNear exactly.
func (g *Graph) AppendObstaclesNear(dst []geom.Rect, w geom.Rect) []geom.Rect {
	if g.kern != nil {
		return g.kern.AppendIntersecting(dst, &g.marks, w)
	}
	if g.obsIndex == nil {
		return dst
	}
	g.obsIndex.Search(w, func(it rtree.Item) bool {
		dst = append(dst, g.obstacles[it.ID])
		return true
	})
	return dst
}
