package core

import (
	"math"
	"sort"
	"time"

	"connquery/internal/geom"
	"connquery/internal/stats"
	"connquery/internal/visgraph"
)

// TrajectoryResult is the answer of a trajectory CONN query — the paper's
// first future-work extension (§6): the obstructed NN of every point on a
// trajectory of consecutive segments, one single-segment CONN result per
// non-degenerate leg, in order. The root package's TrajectoryRequest
// builds it.
type TrajectoryResult struct {
	Waypoints []geom.Point
	Legs      []*Result
}

// OwnerAt returns the tuple covering fractional position t of the whole
// trajectory (t in [0,1] is arc-length parameterized across legs).
func (tr *TrajectoryResult) OwnerAt(t float64) (Tuple, bool) {
	if len(tr.Legs) == 0 {
		return Tuple{}, false
	}
	total := 0.0
	lens := make([]float64, len(tr.Legs))
	for i, leg := range tr.Legs {
		lens[i] = leg.Q.Length()
		total += lens[i]
	}
	if total == 0 {
		return Tuple{}, false
	}
	target := t * total
	for i, leg := range tr.Legs {
		if target <= lens[i] || i == len(tr.Legs)-1 {
			lt := target / lens[i]
			if lt > 1 {
				lt = 1
			}
			return leg.OwnerAt(lt)
		}
		target -= lens[i]
	}
	return Tuple{}, false
}

// ObstructedRange answers an obstructed range query (Zhang et al., EDBT
// 2004, one of the §2.3 query family): all data points whose obstructed
// distance to center is at most radius, sorted ascending. The best-first
// scan over Euclidean mindist (a lower bound of the obstructed distance)
// terminates as soon as the bound exceeds the radius.
func (e *Engine) ObstructedRange(center geom.Point, radius float64) ([]Neighbor, stats.QueryMetrics) {
	start := time.Now()
	qs := e.newQueryState(geom.Seg(center, center))
	defer e.release(qs)
	var out []Neighbor
	for {
		qs.poll()
		bound, ok := qs.peekPointBound()
		if !ok || bound > radius {
			qs.noteStop(radius, ok)
			break
		}
		item, _, _ := qs.nextPoint()
		p := item.Point()
		qs.npe++
		pNode := qs.vg.AddPoint(p, visgraph.KindTransient)
		dS, _ := qs.ior(pNode)
		qs.vg.RemovePoint(pNode)
		if !math.IsInf(dS, 1) && dS <= radius {
			out = append(out, Neighbor{PID: item.ID, P: p, Dist: dS})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	m := stats.QueryMetrics{NPE: qs.npe, NOE: qs.noe, SVG: qs.svgSize(), CPU: time.Since(start), Reach: qs.reachValue()}
	return out, m
}
