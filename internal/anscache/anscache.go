package anscache

import (
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"connquery/internal/geom"
)

// Region is the conservative spatial impact region of one cached answer:
// a mutation can change the answer only if it is of a kind the answer is
// sensitive to and its change box intersects Rect.
type Region struct {
	// Rect bounds every path the answer depends on (query span bbox inflated
	// by the maximum relevant obstructed distance). May be infinite.
	Rect geom.Rect
	// Points reports sensitivity to data-point insertions and deletions.
	Points bool
	// Obstacles reports sensitivity to obstacle insertions and deletions.
	Obstacles bool
}

// InfiniteRect is the unbounded rectangle: it intersects every change box.
// Callers that are sensitive to only one mutation kind pair it with the
// matching flag; Everywhere is the both-sensitive blanket.
func InfiniteRect() geom.Rect {
	inf := math.Inf(1)
	return geom.Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
}

// Everywhere is the blanket region: any mutation anywhere invalidates. It is
// the fallback for answers with an unreachable interval, whose validity no
// finite radius can bound.
func Everywhere() Region {
	return Region{Rect: InfiniteRect(), Points: true, Obstacles: true}
}

// Nothing is the empty region: no mutation can ever change the answer
// (e.g. a join over zero query points). Such entries are promoted across
// every mutation.
func Nothing() Region { return Region{} }

// survives reports whether an answer with this region is unaffected by a
// mutation of the given kind with the given change box.
func (rg Region) survives(change geom.Rect, points bool) bool {
	if points && !rg.Points {
		return true
	}
	if !points && !rg.Obstacles {
		return true
	}
	return !rg.Rect.Intersects(change)
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from the cache; PromotedHits is the subset
	// whose entry was computed at an earlier epoch and survived at least the
	// mutations up to the queried one.
	Hits         int64
	PromotedHits int64
	// Misses counts lookups that fell through to execution.
	Misses int64
	// Promotions counts entry validity-range extensions across mutations;
	// Invalidations counts entries dropped because a mutation's change box
	// intersected their impact region.
	Promotions    int64
	Invalidations int64
	// Evictions counts entries dropped by the size bound, Sweeps the stale
	// entries removed for falling behind the invalidation frontier.
	Evictions int64
	Sweeps    int64
	// Entries and Bytes describe the current cache contents.
	Entries int
	Bytes   int64
}

const numShards = 16

// entry is one cached answer with its validity range [first, last]: the
// payload is bit-identical to an execution at any epoch in the range.
type entry struct {
	key    string
	value  any
	region Region
	first  uint64
	last   uint64
	size   int64

	// LRU list links within the shard; newer towards head.
	prev, next *entry
}

// shard is one lock domain: a map plus an intrusive LRU list.
type shard struct {
	mu    sync.Mutex
	byKey map[string]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	bytes int64
}

// Cache is a sharded, size-bounded answer cache. The zero value is not
// usable; construct with New. A nil *Cache is valid and behaves as a
// disabled cache (all lookups miss, writes are dropped).
type Cache struct {
	shards   [numShards]shard
	seed     maphash.Seed
	maxShard int64 // per-shard byte budget

	hits          atomic.Int64
	promotedHits  atomic.Int64
	misses        atomic.Int64
	promotions    atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	sweeps        atomic.Int64
}

// New builds a cache bounded to roughly maxBytes of payload. maxBytes <= 0
// returns nil — the disabled cache.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache{seed: maphash.MakeSeed()}
	c.maxShard = maxBytes / numShards
	if c.maxShard < 1 {
		c.maxShard = 1
	}
	for i := range c.shards {
		c.shards[i].byKey = make(map[string]*entry)
	}
	return c
}

func (c *Cache) shardOf(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)%numShards]
}

// Get returns the payload cached under key if its validity range covers
// epoch, bumping the entry's recency.
func (c *Cache) Get(key string, epoch uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardOf(key)
	s.mu.Lock()
	e, ok := s.byKey[key]
	if !ok || epoch < e.first || epoch > e.last {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.moveToFront(e)
	v := e.value
	promoted := epoch > e.first
	s.mu.Unlock()
	c.hits.Add(1)
	if promoted {
		c.promotedHits.Add(1)
	}
	return v, true
}

// Put caches value under key as valid at exactly epoch; invalidation sweeps
// extend the range as the entry survives mutations. An existing entry whose
// range reaches a later epoch wins over the new one (it can only have been
// produced by a query pinned to an older version, and replacing the wider
// entry would throw away its accumulated promotions).
func (c *Cache) Put(key string, epoch uint64, value any, region Region, size int64) {
	if c == nil {
		return
	}
	size += int64(len(key)) + 96 // entry bookkeeping overhead
	if size > c.maxShard {
		return // an oversized answer would wipe its whole shard for one entry
	}
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.byKey[key]; ok {
		if old.last > epoch {
			return
		}
		s.remove(old)
	}
	e := &entry{key: key, value: value, region: region, first: epoch, last: epoch, size: size}
	s.byKey[key] = e
	s.pushFront(e)
	s.bytes += size
	for s.bytes > c.maxShard && s.tail != nil && s.tail != e {
		c.evictions.Add(1)
		s.remove(s.tail)
	}
}

// InvalidateBatch applies one committed batch of mutations in a single
// sweep: ptBox is the union change box of the batch's point mutations
// (meaningful only when points is set), obsBox the union box of its obstacle
// mutations (meaningful only when obstacles is set). An entry survives only
// if it survives both union boxes; the union is conservative — strictly more
// entries drop than under per-mutation invalidation — so promoted entries
// stay bit-identical to re-execution. Entries valid at the pre-batch epoch
// `from` either survive (their region is insensitive to the batch, or misses
// its change boxes) and are promoted to the post-batch epoch `to`, or are
// dropped. Entries whose range ends before `from` were cached for a pinned
// old version after the chain had already moved on; they are swept, since no
// change box was observed for the epochs between. The caller must invoke
// InvalidateBatch for every committed batch, in commit order, before
// publishing the new version.
func (c *Cache) InvalidateBatch(from, to uint64, ptBox, obsBox geom.Rect, points, obstacles bool) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.byKey {
			switch {
			case e.last != from:
				c.sweeps.Add(1)
				s.remove(e)
			case (!points || e.region.survives(ptBox, true)) &&
				(!obstacles || e.region.survives(obsBox, false)):
				e.last = to
				c.promotions.Add(1)
			default:
				c.invalidations.Add(1)
				s.remove(e)
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the counters and current contents.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:          c.hits.Load(),
		PromotedHits:  c.promotedHits.Load(),
		Misses:        c.misses.Load(),
		Promotions:    c.promotions.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Sweeps:        c.sweeps.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.byKey)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.byKey)
		s.mu.Unlock()
	}
	return n
}

// ---------------------------------------------------------------------------
// Intrusive per-shard LRU list. Callers hold the shard lock.

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard) remove(e *entry) {
	s.unlink(e)
	delete(s.byKey, e.key)
	s.bytes -= e.size
}
