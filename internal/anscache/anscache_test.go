package anscache

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"connquery/internal/geom"
)

func region(r geom.Rect) Region { return Region{Rect: r, Points: true, Obstacles: true} }

func TestDisabledCache(t *testing.T) {
	if New(0) != nil || New(-5) != nil {
		t.Fatal("New with a non-positive budget must return the disabled cache")
	}
	var c *Cache
	c.Put("k", 1, "v", Nothing(), 8)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("nil cache must miss")
	}
	c.InvalidateBatch(1, 2, geom.R(0, 0, 1, 1), geom.Rect{}, true, false)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
}

func TestGetPutEpochRange(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 3, "v3", region(geom.R(0, 0, 1, 1)), 8)
	if v, ok := c.Get("a", 3); !ok || v != "v3" {
		t.Fatalf("hit at the insertion epoch: %v %v", v, ok)
	}
	if _, ok := c.Get("a", 2); ok {
		t.Fatal("hit below the validity range")
	}
	if _, ok := c.Get("a", 4); ok {
		t.Fatal("hit above the validity range")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.PromotedHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("contents = %+v", st)
	}
}

func TestPromotionAndInvalidation(t *testing.T) {
	c := New(1 << 20)
	c.Put("near", 1, "near", region(geom.R(0, 0, 10, 10)), 8)
	c.Put("far", 1, "far", region(geom.R(100, 100, 110, 110)), 8)

	// A mutation touching only "near"'s region: "far" is promoted.
	c.InvalidateBatch(1, 2, geom.R(5, 5, 6, 6), geom.Rect{}, true, false)
	if _, ok := c.Get("near", 2); ok {
		t.Fatal("intersecting entry must be invalidated")
	}
	if v, ok := c.Get("far", 2); !ok || v != "far" {
		t.Fatal("non-intersecting entry must be promoted")
	}
	// The promoted entry still serves the old epoch.
	if _, ok := c.Get("far", 1); !ok {
		t.Fatal("promoted entry must keep serving its original epoch")
	}
	st := c.Stats()
	if st.Promotions != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PromotedHits != 1 {
		t.Fatalf("hit at epoch 2 of an entry from epoch 1 must count as promoted: %+v", st)
	}
}

func TestSensitivity(t *testing.T) {
	c := New(1 << 20)
	r := geom.R(0, 0, 10, 10)
	c.Put("pts", 1, "pts", Region{Rect: r, Points: true}, 8)
	c.Put("obs", 1, "obs", Region{Rect: r, Obstacles: true}, 8)

	// An obstacle mutation inside both rects: only "obs" is sensitive.
	c.InvalidateBatch(1, 2, geom.Rect{}, geom.R(1, 1, 2, 2), false, true)
	if _, ok := c.Get("pts", 2); !ok {
		t.Fatal("point-only entry must survive an obstacle mutation")
	}
	if _, ok := c.Get("obs", 2); ok {
		t.Fatal("obstacle-sensitive entry must be invalidated")
	}
	// A point mutation now kills the survivor.
	c.InvalidateBatch(2, 3, geom.R(1, 1, 2, 2), geom.Rect{}, true, false)
	if _, ok := c.Get("pts", 3); ok {
		t.Fatal("point-sensitive entry must be invalidated by a point mutation")
	}
}

func TestEverywhereAndNothing(t *testing.T) {
	c := New(1 << 20)
	c.Put("all", 1, "all", Everywhere(), 8)
	c.Put("none", 1, "none", Nothing(), 8)
	c.InvalidateBatch(1, 2, geom.Rect{}, geom.R(1e12, 1e12, 1e12+1, 1e12+1), false, true)
	if _, ok := c.Get("all", 2); ok {
		t.Fatal("Everywhere region must be invalidated by any mutation")
	}
	if _, ok := c.Get("none", 2); !ok {
		t.Fatal("Nothing region must survive every mutation")
	}
	if !Everywhere().Rect.Intersects(geom.R(-1e300, -1e300, -1e299, -1e299)) {
		t.Fatal("infinite rect must intersect everything")
	}
	if math.IsInf(Everywhere().Rect.MinX, -1) != true {
		t.Fatal("Everywhere rect must be unbounded")
	}
}

func TestStaleSweep(t *testing.T) {
	c := New(1 << 20)
	c.Put("stale", 1, "stale", Nothing(), 8)
	// The chain has already advanced 2 -> 3; the entry's range ends at 1, so
	// no change box was observed for epoch 1 -> 2 and it must be swept even
	// though its region is empty.
	c.InvalidateBatch(2, 3, geom.R(0, 0, 1, 1), geom.Rect{}, true, false)
	if _, ok := c.Get("stale", 1); ok {
		t.Fatal("stale entry must be swept, not promoted")
	}
	if st := c.Stats(); st.Sweeps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutReplaceRules(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", 1, "old", Nothing(), 8)
	c.InvalidateBatch(1, 2, geom.R(0, 0, 1, 1), geom.Rect{}, true, false) // old promoted to [1,2]
	// A query pinned to epoch 1 misses nothing here, but a put from a pinned
	// epoch must not clobber the wider entry.
	c.Put("k", 1, "pinned", Nothing(), 8)
	if v, _ := c.Get("k", 2); v != "old" {
		t.Fatal("a narrower pinned-epoch put must not replace the promoted entry")
	}
	// A put at the current frontier replaces.
	c.Put("k", 2, "new", Nothing(), 8)
	if v, _ := c.Get("k", 2); v != "new" {
		t.Fatal("a put at the entry's last epoch must replace it")
	}
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("the replacement starts a fresh validity range")
	}
}

func TestEviction(t *testing.T) {
	// Budget small enough that each shard holds roughly two entries.
	c := New(numShards * 400)
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("key-%d", i), 1, i, Nothing(), 64)
	}
	// An answer bigger than a whole shard's budget is not cached at all.
	c.Put("huge", 1, "huge", Nothing(), 4000)
	if _, ok := c.Get("huge", 1); ok {
		t.Fatal("oversized entry must be rejected")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, stats = %+v", st)
	}
	if st.Entries >= 200 {
		t.Fatalf("size bound not enforced: %+v", st)
	}
	if c.Len() != st.Entries {
		t.Fatalf("Len %d != Stats.Entries %d", c.Len(), st.Entries)
	}
	for i := range c.shards {
		s := &c.shards[i]
		if s.bytes > c.maxShard {
			t.Fatalf("shard %d over budget: %d > %d", i, s.bytes, c.maxShard)
		}
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(1 << 20)
	s := &c.shards[0]
	var es []*entry
	for i := 0; i < 3; i++ {
		e := &entry{key: fmt.Sprint(i), size: 1}
		s.byKey[e.key] = e
		s.pushFront(e)
		es = append(es, e)
	}
	// Head is 2, tail is 0; touching 0 moves it to the head.
	s.moveToFront(es[0])
	if s.head != es[0] || s.tail != es[1] {
		t.Fatalf("LRU order wrong: head %v tail %v", s.head.key, s.tail.key)
	}
	s.moveToFront(es[0]) // already at head: no-op
	if s.head != es[0] {
		t.Fatal("moveToFront of the head must be a no-op")
	}
	s.remove(es[2]) // middle removal keeps the list linked
	if s.head != es[0] || s.head.next != es[1] || s.tail != es[1] {
		t.Fatal("middle removal broke the list")
	}
	s.remove(es[0])
	s.remove(es[1])
	if s.head != nil || s.tail != nil || len(s.byKey) != 0 {
		t.Fatal("emptied shard must have a nil list")
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New(1 << 18)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k-%d", i%37)
				c.Put(key, uint64(1+i%3), i, region(geom.R(0, 0, float64(i%50), 10)), 32)
				c.Get(key, uint64(1+i%3))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := uint64(1); e < 100; e++ {
			pts := e%2 == 0
			c.InvalidateBatch(e, e+1, geom.R(5, 5, 6, 6), geom.R(5, 5, 6, 6), pts, !pts)
		}
	}()
	wg.Wait()
	c.Stats() // must not race with anything above
}

// TestInvalidateBatch pins the batched sweep: one call covers a whole tick's
// union change boxes, entries must survive BOTH applicable boxes to be
// promoted across the full epoch span, and stale entries sweep exactly as
// under per-mutation invalidation.
func TestInvalidateBatch(t *testing.T) {
	c := New(1 << 20)
	r := geom.R(0, 0, 10, 10)
	c.Put("both-far", 1, "both-far", region(geom.R(100, 100, 110, 110)), 8)
	c.Put("pt-hit", 1, "pt-hit", region(r), 8)
	c.Put("obs-hit", 1, "obs-hit", region(geom.R(40, 40, 50, 50)), 8)
	c.Put("pt-only-obs-box", 1, "v", Region{Rect: geom.R(40, 40, 50, 50), Points: true}, 8)
	c.Put("stale", 0, "stale", Nothing(), 8)

	// One batch spanning epochs 1 -> 4: point mutations with union box
	// around (5,5), obstacle mutations with union box around (45,45).
	c.InvalidateBatch(1, 4, geom.R(5, 5, 6, 6), geom.R(45, 45, 46, 46), true, true)

	if v, ok := c.Get("both-far", 4); !ok || v != "both-far" {
		t.Fatal("entry far from both union boxes must be promoted across the whole batch")
	}
	if _, ok := c.Get("both-far", 2); !ok {
		t.Fatal("batch promotion must cover the intermediate epochs")
	}
	if _, ok := c.Get("pt-hit", 4); ok {
		t.Fatal("entry intersecting the point union box must drop")
	}
	if _, ok := c.Get("obs-hit", 4); ok {
		t.Fatal("entry intersecting the obstacle union box must drop")
	}
	if v, ok := c.Get("pt-only-obs-box", 4); !ok || v != "v" {
		t.Fatal("point-only entry must ignore the obstacle union box")
	}
	if _, ok := c.Get("stale", 0); ok {
		t.Fatal("stale entry must be swept by the batched invalidation")
	}
	st := c.Stats()
	if st.Promotions != 2 || st.Invalidations != 2 || st.Sweeps != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A point-only batch must leave obstacle-only entries alone even when
	// the (meaningless) obstacle box would cover them.
	c.Put("obs-only", 4, "obs-only", Region{Rect: r, Obstacles: true}, 8)
	c.InvalidateBatch(4, 6, geom.R(1, 1, 2, 2), r, true, false)
	if _, ok := c.Get("obs-only", 6); !ok {
		t.Fatal("obstacle-only entry must survive a point-only batch")
	}

	// Nil cache: no-op.
	var nc *Cache
	nc.InvalidateBatch(1, 2, r, r, true, true)
}
