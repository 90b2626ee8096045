package connquery

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"connquery/internal/anscache"
)

// Validity horizons for continuous motion. Objects updated through DB.Apply
// may declare a maximum speed (Mutation.Speed, world units per second); the
// DB tracks each declared object's last committed position and declaration
// time in a small registry. From the registry, Exec stamps every Answer with
// a ValidUntil horizon: the earliest wall-clock instant at which any tracked
// object could first touch the answer's widened impact region, assuming it
// honors its declared speed. Until that instant, speed-compliant moves
// provably cannot change the answer — the object stays strictly outside
// everything the execution consulted — so a Watch subscription holding a
// live horizon skips re-execution entirely (WatchStats.HorizonSkips).
//
// The guarantee is gated, not assumed: DB.Apply checks every move against
// the registered declaration, and any commit that is not a fully compliant
// batch of tracked moves — a plain mutation, a new tracked insert, an
// over-speed or untracked move, a delete riding in the tick — publishes its
// epoch through DB.lastUnbounded first. horizonHolds accepts a horizon only
// while lastUnbounded is at or below the answer's epoch, so a single
// non-compliant commit instantly re-arms every watcher.
//
// The registry is keyed at the epoch of the commit that last rewrote it,
// and a horizon is stamped only onto answers at or past that epoch. The
// stamp runs after execution, outside DB.mu, so a tick can commit between
// an answer's snapshot and its stamp; reading the post-tick registry for a
// pre-tick answer would be unsound — a compliant move can carry a tracked
// object OUT of the answer's impact region, and the post-move position
// (safely outside) would certify a horizon for an answer the tick already
// changed. Commits serialize under DB.mu with strictly increasing epochs,
// so ver <= answer epoch proves the table read is exactly the registry as
// of that epoch; otherwise the stamp degrades to no horizon.
//
// The registry is runtime-advisory state: it is not persisted in the WAL,
// so a recovered durable handle starts with an empty table (answers simply
// carry no horizon until speeds are re-declared). The sharded tier does not
// stamp horizons; its Apply delegates to the per-shard public ops.

// motionEntry is one tracked object: its last committed position and the
// speed bound declared for it, timestamped at the commit that set it.
type motionEntry struct {
	pos   Point
	speed float64 // world units per second, > 0 for a live entry
	at    time.Time
}

// motionTable is the declared-speed object registry. Mutations update it
// under DB.mu; Exec reads it lock-free through the counter fast path and
// under its own mutex otherwise, so horizon stamping never contends with
// queries that track no motion at all.
type motionTable struct {
	mu   sync.Mutex
	objs map[int32]motionEntry
	n    atomic.Int32

	// ver is the epoch of the last commit that rewrote the registry
	// (applyAt). horizon refuses to stamp an answer whose epoch is
	// below ver: the table would be newer than the answer (see the file
	// header for why that is unsound).
	ver uint64

	// memo caches horizon results per impact region for the current table
	// contents; any edit clears it. A horizon is a pure function of
	// (registry state, region), so a hit replays the scan's exact result —
	// watch- and cache-hit-heavy workloads stamp the same few regions over
	// and over between ticks, and the memo keeps that path O(1) instead of
	// O(tracked objects) under mt.mu.
	memo map[anscache.Region]time.Time
}

// horizonMemoCap bounds the memo; past it the map is simply reset (the
// region population between two ticks is tiny in practice).
const horizonMemoCap = 256

// empty reports whether no object is tracked, without taking the lock.
func (mt *motionTable) empty() bool { return mt.n.Load() == 0 }

// applyAt applies one committed tick's registry edits — the registry's only
// mutator — and, when any of them changed the table, re-keys it at the
// committing epoch, atomically with respect to horizon reads. The caller
// (commit, under DB.mu) invokes it before publishing the epoch, so a stamp
// at the new epoch always sees the post-tick table. Forgetting an untracked
// object is no edit; deletions only ever lengthen horizons, so outstanding
// stamped answers stay sound.
func (mt *motionTable) applyAt(updates []motionUpdate, epoch uint64) {
	if len(updates) == 0 {
		return
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	edited := false
	for _, u := range updates {
		_, tracked := mt.objs[u.pid]
		switch {
		case !u.forget:
			if mt.objs == nil {
				mt.objs = make(map[int32]motionEntry)
			}
			if !tracked {
				mt.n.Add(1)
			}
			mt.objs[u.pid] = u.entry
		case tracked:
			delete(mt.objs, u.pid)
			mt.n.Add(-1)
		default:
			continue
		}
		edited = true
	}
	if edited {
		mt.memo = nil
		mt.ver = epoch
	}
}

// lookup returns the registered entry for pid.
func (mt *motionTable) lookup(pid int32) (motionEntry, bool) {
	if mt.empty() {
		return motionEntry{}, false
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	e, ok := mt.objs[pid]
	return e, ok
}

// maxHorizon caps a stamped horizon. Horizons beyond it carry no extra
// information (the guard re-checks wall clock on every wake) and the cap
// keeps the duration arithmetic far from overflow for near-zero speeds.
const maxHorizon = 365 * 24 * time.Hour

func horizonDuration(seconds float64) time.Duration {
	if seconds >= maxHorizon.Seconds() {
		return maxHorizon
	}
	return time.Duration(seconds * float64(time.Second))
}

// rectDist is the Euclidean distance from p to the closed rectangle r
// (zero when p lies inside or on the boundary, and for infinite rects).
func rectDist(p Point, r Rect) float64 {
	dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
	return math.Hypot(dx, dy)
}

// horizon computes the validity horizon of an answer at the given epoch
// with the given widened impact region: the minimum over tracked objects of
// the object's earliest possible first touch of the region rect, e.at +
// dist(e.pos, rect)/e.speed. A compliant move committed at time t satisfies
// dist(e.pos, new) <= e.speed*(t-e.at), so before the horizon the object —
// and therefore its delete+insert change boxes — stays strictly outside the
// rect: the answer is bit-identical and the wake filter would skip the
// commit too. Re-keying the entry at the move only pushes its bound later
// (triangle inequality), so horizons stamped from older entries remain
// valid. The zero time means no horizon: region insensitive to points,
// empty table, an object already inside (or possibly inside) the rect, a
// non-positive declared speed — or a registry rewritten at an epoch past
// the answer's, whose positions may hide that an object sat inside the
// region at the answer's epoch and has since moved out.
func (mt *motionTable) horizon(rg anscache.Region, epoch uint64) time.Time {
	if !rg.Points {
		// Tracked motion is point motion; a point-insensitive answer cannot
		// be affected by it, and the wake filter already skips point commits
		// for it, so a horizon would add nothing.
		return time.Time{}
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.ver > epoch {
		return time.Time{}
	}
	if h, ok := mt.memo[rg]; ok {
		return h
	}
	h := mt.scanLocked(rg)
	if mt.memo == nil {
		mt.memo = make(map[anscache.Region]time.Time)
	} else if len(mt.memo) >= horizonMemoCap {
		clear(mt.memo)
	}
	mt.memo[rg] = h
	return h
}

func (mt *motionTable) scanLocked(rg anscache.Region) time.Time {
	var h time.Time
	for _, e := range mt.objs {
		if e.speed <= 0 {
			return time.Time{}
		}
		d := rectDist(e.pos, rg.Rect)
		if d <= 0 {
			return time.Time{}
		}
		t := e.at.Add(horizonDuration(d / e.speed))
		if h.IsZero() || t.Before(h) {
			h = t
		}
	}
	return h
}

// stampHorizon attaches a validity horizon to a freshly built Answer. Both
// execAt paths (cache hit and fresh execution) allocate the Answer wrapper
// per call, so the stamp never mutates shared state. The empty-table fast
// path keeps motion-free deployments at zero overhead; the epoch argument
// keeps the stamp consistent with the answer — a registry rewritten by a
// commit past a.epoch (including a tick racing this very stamp) yields no
// horizon rather than an unsound one.
func (db *DB) stampHorizon(a *Answer) {
	if db.motion.empty() {
		return
	}
	rg := widenRegion(impactRegion(a.req, a.value), a.req, a.metrics.Reach)
	a.validUntil = db.motion.horizon(rg, a.epoch)
}

// horizonHolds reports whether prev's validity horizon still covers the
// present instant: a horizon was stamped, no unbounded commit has published
// since prev's epoch, and the wall clock has not reached the horizon. While
// it holds, every epoch published after prev.epoch was a compliant
// motion-bounded tick, which provably cannot have changed prev's answer.
func (db *DB) horizonHolds(prev *Answer) bool {
	return !prev.validUntil.IsZero() &&
		db.lastUnbounded.Load() <= prev.epoch &&
		time.Now().Before(prev.validUntil)
}
