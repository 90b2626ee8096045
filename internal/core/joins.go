package core

import (
	"math"
	"sort"
	"time"

	"connquery/internal/geom"
	"connquery/internal/rtree"
	"connquery/internal/stats"
)

// This file implements the remaining members of the obstructed query family
// of Zhang, Papadias, Mouratidis & Zhu (EDBT 2004) — the foundational work
// the paper's §2.3 builds on. They share the incremental machinery: the
// Euclidean distance lower-bounds the obstructed distance, so best-first
// scans over the R-tree prune exactly as in the CONN search. The
// e-distance join and the distance semi-join are plain folds of
// ObstructedRange and ONN (k = 1) over the query points, so the root
// package runs them on its item runner; ClosestPair stays here because its
// early termination makes it one algorithm rather than a fold.

// JoinPair is one result of an obstructed e-distance join or semi-join:
// data point PID is within Dist (obstructed) of query point QIdx.
type JoinPair struct {
	QIdx int   // index into the query point slice
	PID  int32 // data point ID
	P    geom.Point
	Dist float64 // obstructed distance
}

// ClosestPair returns the (query point, data point) pair with the smallest
// obstructed distance. Query points are processed in ascending order of
// their Euclidean distance to the nearest data point (a lower bound on
// their best obstructed pair), so once that bound exceeds the best pair
// found the scan stops.
func (eng *Engine) ClosestPair(queries []geom.Point) (JoinPair, stats.QueryMetrics) {
	start := time.Now()
	var agg stats.QueryMetrics

	// Lower bounds: Euclidean NN distance per query point.
	type qb struct {
		qi    int
		bound float64
	}
	bounds := make([]qb, len(queries))
	for qi, qp := range queries {
		d := eng.euclideanNNDist(qp)
		bounds[qi] = qb{qi, d}
		// Every bound is a retrieval event: the scan to the first point is a
		// consultation at distance d (+Inf when no point exists at all).
		if d > agg.Reach {
			agg.Reach = d
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].bound < bounds[j].bound })

	best := JoinPair{QIdx: -1, PID: NoOwner, Dist: math.Inf(1)}
	for _, b := range bounds {
		if b.bound >= best.Dist {
			break // no remaining query point can beat the best pair
		}
		nbrs, m := eng.ONN(queries[b.qi], 1)
		agg.NPE += m.NPE
		agg.NOE += m.NOE
		if m.SVG > agg.SVG {
			agg.SVG = m.SVG
		}
		if m.Reach > agg.Reach {
			agg.Reach = m.Reach
		}
		if len(nbrs) > 0 && nbrs[0].Dist < best.Dist {
			best = JoinPair{QIdx: b.qi, PID: nbrs[0].PID, P: nbrs[0].P, Dist: nbrs[0].Dist}
		}
	}
	agg.CPU = time.Since(start)
	return best, agg
}

// euclideanNNDist returns the Euclidean distance from p to the nearest data
// point (the cheap lower bound used by ClosestPair).
func (eng *Engine) euclideanNNDist(p geom.Point) float64 {
	tree := eng.Data
	if eng.OneTree() {
		tree = eng.Unified
	}
	it := tree.NewNearestIter(rtree.PointTarget{P: p})
	for {
		item, d, ok := it.Next()
		if !ok {
			return math.Inf(1)
		}
		if item.Kind == rtree.KindPoint {
			return d
		}
	}
}

// VisibleKNN returns the k data points nearest to p in Euclidean terms
// among those *visible* from p (Nutanong et al., DASFAA 2007 — the VkNN
// query of §2.3, which uses obstacles for occlusion rather than detours).
func (eng *Engine) VisibleKNN(p geom.Point, k int) ([]Neighbor, stats.QueryMetrics) {
	if k < 1 {
		k = 1
	}
	start := time.Now()
	qs := eng.newQueryState(geom.Seg(p, p))
	defer eng.release(qs)

	var best []Neighbor
	kth := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[len(best)-1].Dist
	}
	for {
		qs.poll()
		bound, ok := qs.peekPointBound()
		if thresh := kth(); !ok || bound >= thresh {
			qs.noteStop(thresh, ok)
			break
		}
		item, d, _ := qs.nextPoint()
		cand := item.Point()
		qs.npe++
		// Load every obstacle that could occlude the sight line p-cand:
		// any blocker intersects the segment, hence has mindist(o, p) <= d.
		qs.loadObstaclesUpTo(d)
		qs.loadedUpTo = math.Max(qs.loadedUpTo, d)
		if !qs.vg.Visible(p, cand) {
			continue
		}
		best = append(best, Neighbor{PID: item.ID, P: cand, Dist: d})
		sort.SliceStable(best, func(i, j int) bool { return best[i].Dist < best[j].Dist })
		if len(best) > k {
			best = best[:k]
		}
	}
	m := stats.QueryMetrics{NPE: qs.npe, NOE: qs.noe, SVG: qs.svgSize(), CPU: time.Since(start), Reach: qs.reachValue()}
	return best, m
}
