package connquery

import (
	"context"

	"connquery/internal/anscache"
)

// Sharded watches. Semantics match DB.Watch — first Update at the revision
// current at subscribe time, re-execution after commits with coalescing,
// strictly increasing delivered revisions, identical error/close behavior —
// because both run the one loop in watch.go; the router only supplies its
// head (the revision) and its way of executing there. The impact-region wake
// filter originated here: commits only wake the watchers whose answer's
// impact region (the widened region proven sufficient for cache
// invalidation) the change box intersects. A watcher whose region a mutation
// misses provably keeps its exact answer, so the skipped wake-up is
// unobservable except as fewer redundant deliveries.

// WatchStats returns the wake-filter counters for the router's watchers.
func (s *ShardedDB) WatchStats() WatchStats { return s.watch.stats() }

// Watch subscribes req to the router's revision chain, with the same
// contract as DB.Watch: same validation, same delivery and error semantics,
// same coalescing. Delivered answers are bit-identical to the single-node
// watch's answers at the same revisions; only redundant deliveries (updates
// whose mutation provably could not change the answer) may be skipped.
func (s *ShardedDB) Watch(ctx context.Context, req Request, opts ...QueryOption) (<-chan Update, error) {
	return startWatch(ctx, &s.watch, s, req, opts)
}

func (s *ShardedDB) execHead(ctx context.Context, req Request, xo *execOptions) (*Answer, anscache.Region, error) {
	return s.execRouted(ctx, req, xo, s.liveCut())
}

// horizonHolds is constant false: the sharded tier tracks no motion, so
// every revision past an answer may have changed it.
func (s *ShardedDB) horizonHolds(*Answer) bool { return false }
