package connquery

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"connquery/internal/anscache"
	"connquery/internal/geom"
)

// Watch support: the paper's queries are *continuous* along a segment; a
// watch makes them continuous along the time axis too. A committed mutation
// notifies the registered watchers whose answer it could have changed, each
// of which re-resolves its Request against the freshly published MVCC
// version and delivers the revised Answer together with the delta against
// the previous one. Because a watcher re-reads the current version when it
// wakes, bursts of mutations coalesce: under write load a watcher skips
// intermediate epochs instead of queueing stale work, and delivered epochs
// are strictly increasing.
//
// Wake-ups are filtered by impact region, exactly as in the sharded tier
// (shardwatch.go shares these types): a commit wakes a watcher only when
// its change box intersects the watcher's last answer's widened impact
// region — the same region proven sufficient for cache invalidation — so a
// mutation far from the watched geometry provably leaves the answer
// bit-identical and the skipped wake-up is unobservable except as fewer
// redundant deliveries. Until the first delivery installs a region, every
// commit wakes the watcher. After each delivery the loop re-checks the
// live epoch directly (the region-shift liveness re-check): while a
// re-execution ran, notify filtered commits against the *previous* region,
// so a commit hitting only the new region queued no wake.
//
// Re-resolution goes through the answer cache (watchLoop executes via
// db.execAt, the same path Exec takes): a woken watcher whose entry
// survived invalidation delivers the promoted answer without re-executing
// the engine. On top of that, answers carrying a validity horizon
// (Answer.ValidUntil, stamped from declared object speeds — see motion.go)
// skip re-execution entirely while the horizon holds and every commit
// since the last delivery was a motion-bounded tick. Together these turn
// Watch from re-exec-per-commit into incremental answer maintenance (cf.
// answering FO+MOD queries under updates by maintenance rather than
// recomputation).

// Update is one delivery of a watched request: the answer re-computed at
// Epoch, and how it differs from the previously delivered answer.
type Update struct {
	// Epoch is the MVCC version the answer was computed against. Across the
	// updates of one watch, epochs are strictly increasing (intermediate
	// epochs may be skipped under write bursts).
	Epoch uint64
	// Answer is the re-executed request's answer.
	Answer *Answer
	// Delta describes the change against the previous update (for the first
	// update, against nothing: Changed is true).
	Delta Delta
	// Err is non-nil when re-execution failed; the channel closes after an
	// errored update. Context cancellation closes the channel without one.
	Err error
}

// Delta summarizes how a watched answer changed between two epochs.
type Delta struct {
	// Changed reports whether the answer payload differs at all.
	Changed bool
	// ChangedSpans lists, for continuous answers (CONN/CNN/COkNN), the
	// sub-intervals of the query segment whose owner (set) changed. Nil for
	// non-continuous payloads; for those, Changed is the whole delta.
	ChangedSpans []Span
}

// watcher is one live watch subscription, shared by the single-node DB and
// the sharded router: a capacity-one wake channel plus the impact region of
// the last delivered answer, against which committed change boxes are
// filtered.
type watcher struct {
	wake chan struct{}

	mu        sync.Mutex
	region    anscache.Region
	hasRegion bool // false until the first delivery: wake on everything
}

func (w *watcher) setRegion(rg anscache.Region) {
	w.mu.Lock()
	w.region, w.hasRegion = rg, true
	w.mu.Unlock()
}

// wakes reports whether a committed change box must wake this watcher.
func (w *watcher) wakes(change geom.Rect, isPoint bool) bool {
	w.mu.Lock()
	rg, has := w.region, w.hasRegion
	w.mu.Unlock()
	if !has {
		return true
	}
	if isPoint {
		if !rg.Points {
			return false
		}
	} else if !rg.Obstacles {
		return false
	}
	return rg.Rect.Intersects(change)
}

// WatchStats counts watch wake-up activity, the observability handle on the
// impact-region filter: Skipped > 0 under a mutation load proves the filter
// is not vacuous, and HorizonSkips counts re-executions avoided because a
// delivered answer's validity horizon still held.
type WatchStats struct {
	// Woken counts wake signals delivered to watchers; Skipped counts
	// commit×watcher pairs suppressed because the change box provably could
	// not alter the watcher's answer.
	Woken   int64
	Skipped int64
	// HorizonSkips counts watcher wake-ups that skipped re-execution because
	// the previous answer's ValidUntil horizon covered every commit since.
	HorizonSkips int64
}

// watchSet is a registry of live watch subscriptions (one per DB, one per
// ShardedDB router).
type watchSet struct {
	mu   sync.Mutex
	subs map[*watcher]struct{}

	woken        atomic.Int64
	skipped      atomic.Int64
	horizonSkips atomic.Int64
}

// notify wakes the watchers a committed mutation could affect. Sends are
// non-blocking: each watcher's wake channel has capacity one, so a watcher
// that is already flagged (or mid-execution) simply coalesces this publish
// into its next wake-up.
func (ws *watchSet) notify(change geom.Rect, isPoint bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for w := range ws.subs {
		if !w.wakes(change, isPoint) {
			ws.skipped.Add(1)
			continue
		}
		ws.woken.Add(1)
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

func (ws *watchSet) add() *watcher {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.subs == nil {
		ws.subs = make(map[*watcher]struct{})
	}
	w := &watcher{wake: make(chan struct{}, 1)}
	ws.subs[w] = struct{}{}
	return w
}

func (ws *watchSet) remove(w *watcher) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	delete(ws.subs, w)
}

func (ws *watchSet) stats() WatchStats {
	return WatchStats{
		Woken:        ws.woken.Load(),
		Skipped:      ws.skipped.Load(),
		HorizonSkips: ws.horizonSkips.Load(),
	}
}

// WatchStats returns the wake-filter counters for this handle's watchers.
func (db *DB) WatchStats() WatchStats { return db.watch.stats() }

// Watch subscribes req to the database's version chain and returns a
// channel of revised answers. The first Update carries the answer at the
// version current when Watch is called; each subsequent one is delivered
// after a mutation commits, re-executed against the then-freshest version.
// The channel is unbuffered from the caller's perspective: a slow consumer
// exerts backpressure and intermediate epochs coalesce rather than queue.
//
// The watch runs until ctx is cancelled (the channel is then closed) or an
// execution fails (one errored Update, then close). WithWorkers applies to
// every re-execution; pinning options (AtVersion/AtSnapshot) are rejected
// with ErrPinnedWatch, since a watch follows the live chain by definition.
func (db *DB) Watch(ctx context.Context, req Request, opts ...QueryOption) (<-chan Update, error) {
	return startWatch(ctx, &db.watch, db, req, opts)
}

// execHead executes req at the current version and derives the answer's
// wake region, the widened impact region cache invalidation uses.
func (db *DB) execHead(ctx context.Context, req Request, xo *execOptions) (*Answer, anscache.Region, error) {
	ans, err := db.execAt(ctx, req, db.current(), xo)
	if err != nil {
		return nil, anscache.Region{}, err
	}
	return ans, widenRegion(impactRegion(req, ans.value), req, ans.metrics.Reach), nil
}

// watchBackend is what the watch loop needs from the database it follows:
// the single-node DB (head = MVCC epoch) or the sharded router (head =
// router revision).
type watchBackend interface {
	// Version returns the head epoch.
	Version() uint64
	// execHead executes req at the head — or later, never earlier — and
	// returns the answer with the region a commit must hit to change it.
	execHead(ctx context.Context, req Request, xo *execOptions) (*Answer, anscache.Region, error)
	// horizonHolds reports whether prev is provably still the answer at the
	// head although commits followed it.
	horizonHolds(prev *Answer) bool
}

// startWatch validates a subscription and starts its loop.
func startWatch(ctx context.Context, ws *watchSet, b watchBackend, req Request, opts []QueryOption) (<-chan Update, error) {
	if req == nil {
		return nil, ErrNilRequest
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var xo execOptions
	for _, o := range opts {
		o(&xo)
	}
	if xo.pinned() {
		return nil, ErrPinnedWatch
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	out := make(chan Update)
	w := ws.add() // registered before Watch returns: no commit after it goes unseen
	go watchLoop(ctx, ws, w, b, req, &xo, out)
	return out, nil
}

// watchLoop is the per-subscription goroutine: execute at the head, deliver,
// install the answer's impact region as the wake filter, sleep until the
// next region-hitting publish (or ctx), repeat.
func watchLoop(ctx context.Context, ws *watchSet, w *watcher, b watchBackend, req Request, xo *execOptions, out chan<- Update) {
	defer close(out)
	defer ws.remove(w)
	var prev *Answer
	for {
		head := b.Version()
		if prev == nil || head > prev.epoch {
			if prev != nil && b.horizonHolds(prev) {
				// Every commit since the delivered answer was a motion-bounded
				// tick and the answer's validity horizon still holds: no tracked
				// object can have entered the impact region yet, so the answer
				// is provably unchanged and re-execution would be wasted.
				ws.horizonSkips.Add(1)
			} else {
				ans, region, err := b.execHead(ctx, req, xo)
				if err != nil {
					if ctx.Err() != nil {
						return // cancelled mid-execution: close without an errored update
					}
					select {
					case out <- Update{Epoch: head, Err: err}:
					case <-ctx.Done():
					}
					return
				}
				// Stamp deliveries with the answer's own epoch, not the head
				// read above: execution runs at the head of its own moment (a
				// live single-shard read even slides forward when a commit on
				// the target shard overtakes its cut, see spanWorld), and the
				// delivered epoch must match the data it reflects.
				select {
				case out <- Update{Epoch: ans.epoch, Answer: ans, Delta: answerDelta(prev, ans)}:
				case <-ctx.Done():
					return
				}
				prev = ans
				w.setRegion(region)
				// Close the missed-wake race: while this re-execution ran,
				// notify filtered commits against the *previous* answer's
				// region, so a mutation intersecting only the new region queued
				// no wake. The new region is installed now; re-check the head
				// directly instead of trusting the wake channel, and go around
				// again if anything committed meanwhile. Commits landing after
				// this check are filtered against the region just installed, so
				// their wakes (the channel holds one token) cannot be lost.
				if b.Version() > prev.epoch {
					continue
				}
			}
		}
		select {
		case <-w.wake:
		case <-ctx.Done():
			return
		}
	}
}

// answerDelta computes the change between two consecutive answers of the
// same request.
func answerDelta(prev, cur *Answer) Delta {
	if prev == nil {
		return Delta{Changed: true, ChangedSpans: changedSpans(nil, cur)}
	}
	if spans := changedSpans(prev, cur); spans != nil || isContinuous(cur.value) {
		return Delta{Changed: len(spans) > 0, ChangedSpans: spans}
	}
	return Delta{Changed: !answersEqual(prev.value, cur.value)}
}

func isContinuous(v any) bool {
	switch v.(type) {
	case *Result, *KResult:
		return true
	}
	return false
}

// changedSpans returns the merged sub-intervals of [0,1] where the owner
// (set) of a continuous answer differs between prev and cur. A nil prev
// means everything changed. Non-continuous payloads return nil.
func changedSpans(prev, cur *Answer) []Span {
	switch c := cur.value.(type) {
	case *Result:
		if prev == nil {
			return []Span{{Lo: 0, Hi: 1}}
		}
		p, _ := prev.value.(*Result)
		if p == nil {
			return []Span{{Lo: 0, Hi: 1}}
		}
		return diffPartition(len(p.Tuples), len(c.Tuples),
			func(i int) Span { return p.Tuples[i].Span },
			func(j int) Span { return c.Tuples[j].Span },
			func(i, j int) bool { return p.Tuples[i].PID == c.Tuples[j].PID })
	case *KResult:
		if prev == nil {
			return []Span{{Lo: 0, Hi: 1}}
		}
		p, _ := prev.value.(*KResult)
		if p == nil {
			return []Span{{Lo: 0, Hi: 1}}
		}
		return diffPartition(len(p.Tuples), len(c.Tuples),
			func(i int) Span { return p.Tuples[i].Span },
			func(j int) Span { return c.Tuples[j].Span },
			func(i, j int) bool { return sameOwnerIDs(p.Tuples[i].Owners, c.Tuples[j].Owners) })
	}
	return nil
}

// diffPartition walks two partitions of [0,1] in lockstep and collects the
// cells where same reports a differing owner, merging adjacent cells.
func diffPartition(n, m int, spanA, spanB func(int) Span, same func(i, j int) bool) []Span {
	var out []Span
	i, j := 0, 0
	lo := 0.0
	for i < n && j < m {
		hi := math.Min(spanA(i).Hi, spanB(j).Hi)
		if !same(i, j) && hi > lo {
			if k := len(out); k > 0 && out[k-1].Hi >= lo {
				out[k-1].Hi = hi
			} else {
				out = append(out, Span{Lo: lo, Hi: hi})
			}
		}
		lo = hi
		if spanA(i).Hi <= hi {
			i++
		}
		if spanB(j).Hi <= hi {
			j++
		}
	}
	return out
}

func sameOwnerIDs(a, b []Owner) bool {
	if len(a) != len(b) {
		return false
	}
	// Owner lists are sorted by distance at the span midpoint; treat them as
	// sets for delta purposes.
	for _, oa := range a {
		found := false
		for _, ob := range b {
			if oa.PID == ob.PID {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// answersEqual reports exact (bit-identical) equality for every answer
// payload kind.
func answersEqual(a, b any) bool {
	switch x := a.(type) {
	case *Result:
		y, ok := b.(*Result)
		return ok && resultsEqual(x, y)
	case *KResult:
		y, ok := b.(*KResult)
		if !ok || x.K != y.K || len(x.Tuples) != len(y.Tuples) {
			return false
		}
		for i := range x.Tuples {
			if x.Tuples[i].Span != y.Tuples[i].Span || len(x.Tuples[i].Owners) != len(y.Tuples[i].Owners) {
				return false
			}
			for o := range x.Tuples[i].Owners {
				if x.Tuples[i].Owners[o].PID != y.Tuples[i].Owners[o].PID ||
					x.Tuples[i].Owners[o].P != y.Tuples[i].Owners[o].P {
					return false
				}
			}
		}
		return true
	case []Neighbor:
		y, ok := b.([]Neighbor)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case []JoinPair:
		y, ok := b.([]JoinPair)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case JoinPair:
		y, ok := b.(JoinPair)
		return ok && x == y
	case *TrajectoryResult:
		y, ok := b.(*TrajectoryResult)
		if !ok || len(x.Legs) != len(y.Legs) {
			return false
		}
		for i := range x.Legs {
			if !resultsEqual(x.Legs[i], y.Legs[i]) {
				return false
			}
		}
		return true
	case []*Result:
		y, ok := b.([]*Result)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !resultsEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case float64:
		y, ok := b.(float64)
		return ok && (x == y || (math.IsInf(x, 1) && math.IsInf(y, 1)))
	}
	return false
}

func resultsEqual(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if a.Tuples[i] != b.Tuples[i] {
			return false
		}
	}
	return true
}
