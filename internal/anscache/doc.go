// Package anscache is the answer cache behind the public query surface: a
// sharded, size-bounded map from canonical request fingerprints to answer
// payloads, keyed by the MVCC epoch range the payload is valid for.
//
// Every entry carries a conservative spatial impact Region — the bounding
// box of the query span inflated by the maximum relevant obstructed
// distance, plus flags for which mutation kinds (point vs obstacle) can
// affect the answer at all. A shortest obstructed path of length d starting
// on the query span lies entirely within Euclidean distance d of it, so a
// mutation whose own bounding box does not intersect the inflated region
// can neither shorten nor lengthen any path that the answer depends on:
// the answer is bit-identical across that mutation.
//
// The MVCC writer calls InvalidateBatch once per committed tick, with the
// union change boxes of the tick's point and obstacle mutations, before
// publishing the new version. Entries valid at the pre-tick epoch whose
// region intersects a change box (of a mutation kind it is sensitive to)
// are dropped; every other such entry is promoted — its validity range is
// extended to the new epoch — so hot requests keep hitting across unrelated
// writes, and a Watch subscription whose entry survives delivers the
// promoted answer without re-executing the engine. Answers whose region is
// unbounded (an unreachable interval makes any mutation anywhere relevant)
// use an infinite rectangle, degrading gracefully to blanket invalidation.
//
// Entries are evicted per shard in LRU order once the shard's share of the
// byte budget is exceeded, and entries that fall behind the invalidation
// frontier (their range no longer reaches the pre-mutation epoch, which can
// only happen to answers cached for explicitly pinned old versions) are
// swept out rather than promoted: the cache never guesses about epochs it
// did not observe a change box for.
//
// The package is deliberately value-agnostic: it stores opaque payloads and
// leaves fingerprinting and region computation to the caller. Invalidation
// sweeps every entry (O(cache size) per tick, a few ns per entry); a
// spatial index over entry regions is the upgrade path if caches grow to
// the point where the sweep shows up next to the mutation's own tree work.
package anscache
