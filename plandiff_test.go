package connquery

// The execution planner's differential harness: a planner-enabled handle and
// a WithNoPlanner twin receive the identical lockstep mutation sequence
// while concurrent readers storm overlapping requests across all 12 kinds,
// and every answer pair — executed at the same pinned epoch on both handles
// — must be bit-identical in payload, epoch and the machine-independent
// metrics (NPE/NOE/|SVG|/Reach). That is the planner's whole contract: a
// shared region-scoped sight-line certificate table changes only how
// visibility verdicts are obtained, never what any query computes.
//
// The world is dense (196 obstacles), so a shared region table covers only
// part of it and uncovered pairs fall back to the geometric path, and the
// storm concentrates its requests in a hot sub-square so quantized group
// keys actually collide. Answer caches are disabled on both
// handles: every exec is a real execution, so the planner is exercised
// maximally and pinned-epoch metrics comparisons never depend on
// cross-reader cache state (promoted entries replay the populating
// execution's cost profile by contract, and with concurrent readers the two
// handles' caches would not stay in lockstep).
//
// The harness runs single-node and sharded, and is in the CI race job at
// -cpu 1,2.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// plannerWorld is a 14x14 grid of small obstacles (196, past the 150 a
// region table may cover) with data points in the gaps.
func plannerWorld() ([]Point, []Rect) {
	var pts []Point
	var obs []Rect
	for i := 0; i < 14; i++ {
		for j := 0; j < 14; j++ {
			x, y := float64(i)*7+1, float64(j)*7+1
			obs = append(obs, R(x, y, x+1.5, y+1.5))
			if i%2 == 0 && j%2 == 0 {
				pts = append(pts, Pt(x+3.5, y+3.5))
			}
		}
	}
	return pts, obs
}

// plannerHot is the storm's hot sub-square: small relative to the world so
// concurrent requests land on the same quantized planner cells, and
// straddling the world center so the sharded configuration's queries cross
// cell borders into union mirrors, whose planners see the merged obstacle
// sets.
var plannerHot = hotBox{lo: 42, side: 12}

// newPlannerTwins opens the planner-enabled handle under test and its
// WithNoPlanner reference twin over the same dense world (sharded when
// shards > 1) and wires them into a twinHarness.
func newPlannerTwins(t *testing.T, shards int, seed int64) *twinHarness {
	t.Helper()
	pts, obs := plannerWorld()
	var dut, ref Database
	var err error
	if shards > 1 {
		dut, err = OpenSharded(pts, obs, shards, WithAnswerCache(0))
		if err == nil {
			ref, err = OpenSharded(pts, obs, shards, WithAnswerCache(0), WithNoPlanner())
		}
	} else {
		dut, err = Open(pts, obs, WithAnswerCache(0))
		if err == nil {
			ref, err = Open(pts, obs, WithAnswerCache(0), WithNoPlanner())
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	hot := plannerHot
	gen := &diffWorkload{rng: rand.New(rand.NewSource(seed)), hot: &hot}
	for i := range pts {
		gen.alivePts = append(gen.alivePts, int32(i))
	}
	for i := range obs {
		gen.aliveObs = append(gen.aliveObs, int32(i))
	}
	return newTwinHarness(gen, dut, ref)
}

// runPlannerStorm is the differential storm driver: one writer applies
// lockstep mutations (alternating draws inside and outside the hot region)
// and pins a (dut, ref) snapshot pair after each, while `readers` goroutines
// storm overlapping requests at the latest pinned pair and check every
// answer bit-identical across the twins. pause throttles the writer; zero
// maximizes epoch churn.
func runPlannerStorm(t *testing.T, shards, readers, readerOps, writerOps int, pause time.Duration) *twinHarness {
	h := newPlannerTwins(t, shards, 7+int64(shards))
	hot := h.gen.hot

	type pinPair struct{ dut, ref Pin }
	var mu sync.Mutex
	pairs := []pinPair{{h.dut.Pin(), h.ref.Pin()}}
	defer func() {
		for _, p := range pairs {
			p.dut.Release()
			p.ref.Release()
		}
	}()
	latest := func() pinPair {
		mu.Lock()
		defer mu.Unlock()
		return pairs[len(pairs)-1]
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // sole writer; the harness asserts the twins stay in lockstep
		defer wg.Done()
		for i := 0; i < writerOps && !t.Failed(); i++ {
			if i%2 == 0 {
				h.gen.hot = nil // world-wide draw: mutate outside the hot region too
			} else {
				h.gen.hot = hot
			}
			h.mutate(t)
			p := pinPair{h.dut.Pin(), h.ref.Pin()}
			if p.dut.Epoch() != p.ref.Epoch() {
				t.Errorf("pinned epoch skew: dut %d, ref %d", p.dut.Epoch(), p.ref.Epoch())
			}
			mu.Lock()
			pairs = append(pairs, p)
			mu.Unlock()
			if pause > 0 {
				time.Sleep(pause)
			}
		}
		h.gen.hot = hot
	}()

	ctx := context.Background()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd := &diffWorkload{rng: rand.New(rand.NewSource(1000 + int64(g))), hot: hot}
			for i := 0; i < readerOps && !t.Failed(); i++ {
				p := latest()
				req := rd.request()
				want, err1 := h.ref.Exec(ctx, req, p.ref.At())
				got, err2 := h.dut.Exec(ctx, req, p.dut.At())
				if (err1 == nil) != (err2 == nil) {
					t.Errorf("%s: ref err=%v, dut err=%v", req.Kind(), err1, err2)
					continue
				}
				if err1 != nil {
					continue // invalid request: both twins rejected it
				}
				checkTwinAnswers(t, req, got, want)
			}
		}(g)
	}
	wg.Wait()
	return h
}

// stormOps scales a storm's op count down ~3x under the race detector,
// which multiplies each exec's cost roughly tenfold: the differential
// contract is checked per answer, so the race configurations keep the full
// concurrency shape (readers, lockstep writer, epoch churn) at a volume
// that fits the CI race job's timeout.
func stormOps(n int) int {
	if raceEnabled {
		return (n + 2) / 3
	}
	return n
}

// ensurePlannerEngaged keeps firing rounds of concurrent hot-region execs
// until the handle's planner has demonstrably built AND shared a table. A
// group forms only when >=2 requests are in flight on one key, which the
// scheduler is free to avoid on any single round but not for a whole
// deadline's worth of rounds.
func ensurePlannerEngaged(t *testing.T, h *twinHarness) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	hot := plannerHot
	rd := &diffWorkload{rng: rand.New(rand.NewSource(424242)), hot: &hot}
	ctx := context.Background()
	for {
		ps := h.dut.PlannerStats()
		if ps.GroupsFormed > 0 && ps.Adoptions > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("planner never engaged under storm: %+v", ps)
			return
		}
		var wg sync.WaitGroup
		for k := 0; k < 8; k++ {
			req := CONNRequest{Seg: rd.seg()}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := h.dut.Exec(ctx, req); err != nil {
					t.Errorf("storm exec: %v", err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestPlannerDifferentialStorm is the single-node headline proof: 8 readers
// storm all 12 request kinds against a mutating planner handle and its
// WithNoPlanner twin, every answer pair bit-identical, and the planner is
// then shown to have actually built and shared tables (the differential
// would be vacuous against a planner that never engaged).
func TestPlannerDifferentialStorm(t *testing.T) {
	h := runPlannerStorm(t, 1, 8, stormOps(25), stormOps(20), time.Millisecond)
	ensurePlannerEngaged(t, h)
	t.Logf("planner stats: %+v", h.dut.PlannerStats())
	if ps := h.ref.PlannerStats(); ps != (PlannerStats{}) {
		t.Errorf("WithNoPlanner handle reported planner activity: %+v", ps)
	}
}

// TestPlannerDifferentialStormSharded runs the same storm with both twins
// sharded 2x2: shard units and union mirrors carry their own planners (the
// option flows through openSubWorld), and the router's answers must stay
// bit-identical to the planner-free router's.
func TestPlannerDifferentialStormSharded(t *testing.T) {
	h := runPlannerStorm(t, 4, 4, stormOps(25), stormOps(12), time.Millisecond)
	ps := h.dut.PlannerStats()
	t.Logf("sharded planner stats: %+v", ps)
	// Group formation needs scheduler-dependent concurrency, but mere
	// consultation does not: the hot region straddles the grid center, so
	// spanning queries must have executed on planner-eligible union worlds.
	if ps.GroupsFormed == 0 && ps.Fallbacks == 0 {
		t.Errorf("sharded storm never consulted a planner: %+v", ps)
	}
}

// TestPlannerStormUnderMutation maximizes epoch churn: the writer mutates
// with no pause — alternating inside and outside the hot region — while 8
// readers storm, so shared tables are constantly invalidated by epoch
// turnover and readers race group formation against key retirement. Every
// answer is still verified against the WithNoPlanner twin at the same
// pinned epoch.
func TestPlannerStormUnderMutation(t *testing.T) {
	h := runPlannerStorm(t, 1, 8, stormOps(30), stormOps(60), 0)
	ensurePlannerEngaged(t, h)
	ps := h.dut.PlannerStats()
	t.Logf("planner stats under churn: %+v", ps)
	if ps.Fallbacks == 0 {
		t.Errorf("churn storm never fell back to the private path: %+v", ps)
	}
}
