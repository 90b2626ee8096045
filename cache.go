package connquery

import (
	"encoding/binary"
	"math"

	"connquery/internal/anscache"
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
// slice), then the per-call worker option. Each request type writes its
// tag and parameters in its fingerprint method (request.go); the tags
// below fix the byte each kind writes.
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
func (w *fpWriter) int(v int)    { w.u64(uint64(int64(v))) }
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
	req.fingerprint(&w)
	// Workers change ItemMetrics, so pooled and sequential executions keep
	// separate entries.
	if hasWorkers {
		w.byte(1)
		w.int(workers)
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

// answerRegion is the one cache region of every answer, built from the
// request's own geometry: its base box inflated by the answer radius (the
// impact region: a mutation of a kind the request is sensitive to, whose
// change box intersects it, may change the answer; any other mutation
// provably leaves it bit-identical), united with the base box inflated by
// the execution's reach (the retrieval footprint: every object the
// execution consulted). The union makes cache entries trace-exact: a
// mutation that survives invalidation lies outside everything the
// execution consulted, so a fresh run at the promoted epoch retrieves the
// same object sequence and reproduces not just the payload but the
// NPE/NOE/|SVG|/Reach metrics bit for bit. The sharded tier's differential
// guarantee rests on this: cached and freshly executed answers are
// indistinguishable, wherever (single node, shard, or shard-union mirror)
// they were produced. The same region is the watch wake filter and the
// motion horizon's target.
func answerRegion(req Request, value any, reach float64) anscache.Region {
	bb := req.baseBox()
	if bb.Empty() {
		return anscache.Nothing() // zero-query answers consult no objects
	}
	var rg anscache.Region
	rg.Points, rg.Obstacles = req.sensitive()
	if d := req.radius(value); math.IsInf(d, 1) || math.IsInf(reach, 1) {
		rg.Rect = anscache.InfiniteRect()
	} else {
		rg.Rect = bb.Buffer(d).Union(bb.Buffer(reach))
	}
	return rg
}

// region is answerRegion of an executed answer.
func (a *Answer) region() anscache.Region { return answerRegion(a.req, a.value, a.metrics.Reach) }

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
