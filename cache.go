package connquery

import (
	"encoding/binary"
	"math"

	"connquery/internal/anscache"
	"connquery/internal/geom"
)

// The answer cache. Exec keys every cacheable execution by a canonical
// request fingerprint and serves repeats of the same request at the same
// MVCC epoch — or at any epoch the entry has been promoted across — without
// touching the engine. Mutations invalidate surgically: each tick computes
// its change boxes, and only entries whose conservative impact region
// intersects them are dropped (the commit in apply.go calls
// anscache.Cache.InvalidateBatch before publishing); every other entry is
// promoted to the new epoch, which is also what lets Watch deliver
// maintained answers without re-executing.
//
// The impact region is derived from the answer itself: the bounding box of
// the query span inflated by the maximum relevant obstructed distance
// (core stamps Result.MaxDist / KResult.MaxDist for the continuous kinds;
// the point kinds carry their distances in the payload). A shortest path of
// length d starting on the query span stays within Euclidean distance d of
// it, so a mutation outside the inflated box can neither block nor open any
// path short enough to alter the answer — insertion-side candidates are
// covered too, because a point or detour beyond the box has Euclidean (and
// therefore obstructed) distance strictly greater than every answered
// distance. Unreachable intervals make the region unbounded, degrading to
// blanket invalidation for that entry.

// DefaultAnswerCacheBytes is the answer cache budget used when Open is not
// given WithAnswerCache.
const DefaultAnswerCacheBytes = 32 << 20

// CacheStats is a snapshot of the answer cache counters; see DB.CacheStats.
type CacheStats = anscache.Stats

// CacheStats returns the answer cache counters: hits and misses, entries
// promoted across mutations (and hits served from promoted entries),
// surgical invalidations, evictions, and the current contents. Zero when
// the cache is disabled.
func (db *DB) CacheStats() CacheStats { return db.cache.Stats() }

// cachedAnswer is the payload stored per cache entry: everything needed to
// rebuild an Answer except the request (the caller's) and the epoch (the
// queried one). Metrics are the original execution's — a cache hit performs
// no engine work, so it has no fresh cost profile to report.
type cachedAnswer struct {
	value   any
	metrics Metrics
	items   []Metrics
}

// ---------------------------------------------------------------------------
// Request fingerprinting

// Fingerprint layout: one schema byte, one request-kind tag, the request's
// parameters as little-endian normalized float64 bits (lengths prefix every
// slice), then the per-call worker option.
// The full canonical byte string is the cache key — no hashing, so distinct
// requests can never collide and serve each other's answers.
const fpSchema byte = 1

const (
	fpCONN byte = iota + 1
	fpCOkNN
	fpONN
	fpCNN
	fpRange
	fpVisibleKNN
	fpDistance
	fpTrajectory
	fpCONNBatch
	fpEDistanceJoin
	fpDistanceSemiJoin
	fpClosestPair
)

// fpWriter accumulates the canonical encoding. ok flips to false when a
// parameter has no canonical form (NaN coordinates: the engine's behavior
// on them is unspecified, so such requests are simply not cached).
type fpWriter struct {
	buf []byte
	ok  bool
}

// normF64 maps both float zeros onto +0 so semantically equal coordinates
// (-0.0 == 0.0) fingerprint identically.
func normF64(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

func (w *fpWriter) f64(v float64) {
	if math.IsNaN(v) {
		w.ok = false
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(normF64(v)))
}

func (w *fpWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *fpWriter) byte(b byte)  { w.buf = append(w.buf, b) }

func (w *fpWriter) point(p Point) { w.f64(p.X); w.f64(p.Y) }
func (w *fpWriter) seg(s Segment) { w.point(s.A); w.point(s.B) }
func (w *fpWriter) points(ps []Point) {
	w.u64(uint64(len(ps)))
	for _, p := range ps {
		w.point(p)
	}
}

// pointLess orders two NaN-free points by (X, Y) after zero normalization.
func pointLess(a, b Point) bool {
	ax, bx := normF64(a.X), normF64(b.X)
	if ax != bx {
		return ax < bx
	}
	return normF64(a.Y) < normF64(b.Y)
}

// requestFingerprint returns the canonical cache key for req executed with
// the given worker option, and whether the request is cacheable at all. Two
// requests that must produce the same answer at the same version map to the
// same key (value-identical parameters, -0.0 normalized to +0.0, the
// symmetric DistanceRequest endpoint order canonicalized); any difference
// in parameters or worker options yields a different key.
func requestFingerprint(req Request, workers int, hasWorkers bool) (string, bool) {
	w := fpWriter{buf: make([]byte, 0, 64), ok: true}
	w.byte(fpSchema)
	switch r := req.(type) {
	case CONNRequest:
		w.byte(fpCONN)
		w.seg(r.Seg)
	case COkNNRequest:
		w.byte(fpCOkNN)
		w.seg(r.Seg)
		w.u64(uint64(int64(r.K)))
	case ONNRequest:
		w.byte(fpONN)
		w.point(r.P)
		w.u64(uint64(int64(r.K)))
	case CNNRequest:
		w.byte(fpCNN)
		w.seg(r.Seg)
	case RangeRequest:
		w.byte(fpRange)
		w.point(r.Center)
		w.f64(r.Radius)
	case VisibleKNNRequest:
		w.byte(fpVisibleKNN)
		w.point(r.P)
		w.u64(uint64(int64(r.K)))
	case DistanceRequest:
		w.byte(fpDistance)
		// Obstructed distance is symmetric: canonicalize the endpoint order
		// so DistanceRequest{A, B} and DistanceRequest{B, A} share an entry.
		a, b := r.A, r.B
		if math.IsNaN(a.X) || math.IsNaN(a.Y) || math.IsNaN(b.X) || math.IsNaN(b.Y) {
			return "", false
		}
		if pointLess(b, a) {
			a, b = b, a
		}
		w.point(a)
		w.point(b)
	case TrajectoryRequest:
		w.byte(fpTrajectory)
		w.points(r.Waypoints)
	case CONNBatchRequest:
		w.byte(fpCONNBatch)
		w.u64(uint64(len(r.Segs)))
		for _, s := range r.Segs {
			w.seg(s)
		}
	case EDistanceJoinRequest:
		w.byte(fpEDistanceJoin)
		w.points(r.Queries)
		w.f64(r.E)
	case DistanceSemiJoinRequest:
		w.byte(fpDistanceSemiJoin)
		w.points(r.Queries)
	case ClosestPairRequest:
		w.byte(fpClosestPair)
		w.points(r.Queries)
	default:
		return "", false // unknown request implementation: never cache
	}

	// Workers change ItemMetrics, so pooled and sequential executions keep
	// separate entries.
	if hasWorkers {
		w.byte(1)
		w.u64(uint64(int64(workers)))
	} else {
		w.byte(0)
	}
	if !w.ok {
		return "", false
	}
	return string(w.buf), true
}

// ---------------------------------------------------------------------------
// Impact regions

// segBox returns the bounding box of a segment.
func segBox(s Segment) geom.Rect { return geom.RectFromPoints(s.A, s.B) }

// regionAround builds the both-sensitive region: rect inflated by maxd.
func regionAround(rect geom.Rect, maxd float64) anscache.Region {
	if math.IsInf(maxd, 1) {
		return anscache.Everywhere()
	}
	return anscache.Region{Rect: rect.Buffer(maxd), Points: true, Obstacles: true}
}

// impactRegion computes the conservative impact region of one answer: a
// mutation of a kind the region is sensitive to, whose change box
// intersects it, may change the answer; any other mutation provably leaves
// the answer bit-identical. value is the executed payload for req.
func impactRegion(req Request, value any) anscache.Region {
	switch r := req.(type) {
	case CONNRequest:
		return regionAround(segBox(r.Seg), value.(*Result).MaxDist)
	case COkNNRequest:
		return regionAround(segBox(r.Seg), value.(*KResult).MaxDist)
	case CNNRequest:
		// Euclidean: obstacles never enter the answer.
		res := value.(*Result)
		if math.IsInf(res.MaxDist, 1) {
			return anscache.Region{Rect: anscache.InfiniteRect(), Points: true}
		}
		return anscache.Region{Rect: segBox(r.Seg).Buffer(res.MaxDist), Points: true}
	case ONNRequest:
		return regionAround(geom.RectFromPoints(r.P), knnRadius(value.([]Neighbor), r.K))
	case VisibleKNNRequest:
		return regionAround(geom.RectFromPoints(r.P), knnRadius(value.([]Neighbor), r.K))
	case RangeRequest:
		return regionAround(geom.RectFromPoints(r.Center), r.Radius)
	case DistanceRequest:
		// Data points never enter an obstructed-distance computation.
		d := value.(float64)
		if math.IsInf(d, 1) {
			return anscache.Region{Rect: anscache.InfiniteRect(), Obstacles: true}
		}
		return anscache.Region{Rect: geom.RectFromPoints(r.A, r.B).Buffer(d), Obstacles: true}
	case TrajectoryRequest:
		tr := value.(*TrajectoryResult)
		if len(tr.Legs) == 0 {
			return anscache.Everywhere() // unreachable: validation rejects all-degenerate
		}
		rect := segBox(tr.Legs[0].Q)
		maxd := 0.0
		for _, leg := range tr.Legs {
			rect = rect.Union(segBox(leg.Q))
			maxd = math.Max(maxd, leg.MaxDist)
		}
		return regionAround(rect, maxd)
	case CONNBatchRequest:
		results := value.([]*Result)
		if len(results) == 0 {
			return anscache.Nothing() // an empty batch is constant forever
		}
		rect := segBox(results[0].Q)
		maxd := 0.0
		for _, res := range results {
			rect = rect.Union(segBox(res.Q))
			maxd = math.Max(maxd, res.MaxDist)
		}
		return regionAround(rect, maxd)
	case EDistanceJoinRequest:
		if len(r.Queries) == 0 {
			return anscache.Nothing()
		}
		return regionAround(geom.RectFromPoints(r.Queries...), r.E)
	case DistanceSemiJoinRequest:
		if len(r.Queries) == 0 {
			return anscache.Nothing()
		}
		pairs := value.([]JoinPair)
		maxd := math.Inf(1)
		if len(pairs) > 0 {
			maxd = pairs[len(pairs)-1].Dist // sorted ascending: the last is the max
		}
		return regionAround(geom.RectFromPoints(r.Queries...), maxd)
	case ClosestPairRequest:
		if len(r.Queries) == 0 {
			return anscache.Nothing()
		}
		return regionAround(geom.RectFromPoints(r.Queries...), value.(JoinPair).Dist)
	}
	return anscache.Everywhere() // unknown payload: only blanket safety remains
}

// requestBaseBox returns the bounding box of a request's own query geometry
// (segments, centers, waypoints), independent of the answer. It is the seed
// of the retrieval footprint: every object an execution consults lies within
// Metrics.Reach of this box. Empty (inverted) for zero-query requests.
func requestBaseBox(req Request) geom.Rect {
	switch r := req.(type) {
	case CONNRequest:
		return segBox(r.Seg)
	case COkNNRequest:
		return segBox(r.Seg)
	case CNNRequest:
		return segBox(r.Seg)
	case ONNRequest:
		return geom.RectFromPoints(r.P)
	case VisibleKNNRequest:
		return geom.RectFromPoints(r.P)
	case RangeRequest:
		return geom.RectFromPoints(r.Center)
	case DistanceRequest:
		return geom.RectFromPoints(r.A, r.B)
	case TrajectoryRequest:
		return geom.RectFromPoints(r.Waypoints...)
	case CONNBatchRequest:
		box := geom.RectFromPoints()
		for _, s := range r.Segs {
			box = box.Union(segBox(s))
		}
		return box
	case EDistanceJoinRequest:
		return geom.RectFromPoints(r.Queries...)
	case DistanceSemiJoinRequest:
		return geom.RectFromPoints(r.Queries...)
	case ClosestPairRequest:
		return geom.RectFromPoints(r.Queries...)
	}
	return anscache.InfiniteRect() // unknown request: no footprint bound
}

// widenRegion unions an answer's impact region with its retrieval footprint
// (the request's base box inflated by the execution's reach), making cache
// entries trace-exact: a mutation that survives invalidation lies outside
// everything the execution consulted, so a fresh run at the promoted epoch
// retrieves the same object sequence and reproduces not just the payload
// but the NPE/NOE/|SVG|/Reach metrics bit for bit. The sharded tier's
// differential guarantee rests on this: cached and freshly executed answers
// are indistinguishable, wherever (single node, shard, or shard-union
// mirror) they were produced.
func widenRegion(rg anscache.Region, req Request, reach float64) anscache.Region {
	if !rg.Points && !rg.Obstacles {
		return rg // Nothing: zero-query answers consult no objects
	}
	if math.IsInf(reach, 1) {
		rg.Rect = anscache.InfiniteRect()
		return rg
	}
	if bb := requestBaseBox(req); !bb.Empty() {
		rg.Rect = rg.Rect.Union(bb.Buffer(reach))
	}
	return rg
}

// knnRadius is the invalidation radius of a k-nearest answer: the k-th
// distance, or +Inf while fewer than k neighbors are reachable (then any
// insertion or unblocking anywhere could extend the answer). The engine
// clamps k < 1 to 1.
func knnRadius(nbrs []Neighbor, k int) float64 {
	if k < 1 {
		k = 1
	}
	if len(nbrs) < k {
		return math.Inf(1)
	}
	return nbrs[len(nbrs)-1].Dist
}

// ---------------------------------------------------------------------------
// Size accounting

// answerFootprint estimates the retained bytes of one cached answer, for
// the cache's size bound. Estimates err high-ish on purpose: the bound
// protects memory, not accounting precision.
func answerFootprint(value any, items []Metrics) int64 {
	size := int64(64 + 56*len(items))
	switch v := value.(type) {
	case *Result:
		size += resultFootprint(v)
	case *KResult:
		size += 64
		for _, t := range v.Tuples {
			size += 48 + 56*int64(len(t.Owners))
		}
	case []Neighbor:
		size += 24 + 40*int64(len(v))
	case []JoinPair:
		size += 24 + 56*int64(len(v))
	case JoinPair:
		size += 56
	case *TrajectoryResult:
		size += 24 + 16*int64(len(v.Waypoints))
		for _, leg := range v.Legs {
			size += resultFootprint(leg)
		}
	case []*Result:
		size += 24
		for _, res := range v {
			size += resultFootprint(res)
		}
	case float64:
		size += 8
	default:
		size += 256
	}
	return size
}

func resultFootprint(r *Result) int64 {
	if r == nil {
		return 8
	}
	return 64 + 48*int64(len(r.Tuples))
}
