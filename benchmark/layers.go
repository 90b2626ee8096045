package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"connquery"
	"connquery/internal/anscache"
	"connquery/internal/core"
	"connquery/internal/flatgeom"
	"connquery/internal/geom"
	"connquery/internal/planner"
	"connquery/internal/rtree"
	"connquery/internal/stats"
	"connquery/internal/visgraph"
	"connquery/internal/wal"
	"connquery/server"
)

// The traced run. Everything here is measured from outside the program: the
// wire run's /v1/stats deltas, and an in-process replay of the head of the
// same traffic against twins built from the same seed, timing calls into each
// layer's public functions. Layers below connquery.Exec are timed by direct
// calls with the same inputs, so their figures are unit costs, not nested
// self-times; those need clocks inside the program (ROADMAP item 2).

// span is one timed interval of the traced replay.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the trace began
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`  // index of the causing span, -1 for a root
	Request int    `json:"request"` // spans of one request or tick share it
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

type layerMetrics struct {
	cfg       runConfig
	w         *world
	in        *inputs
	rep       *report
	idle      *readResult // wire replay of the first cfg.replay requests, one idle connection
	reads     *readResult
	feed      *feedResult
	readStats [2]server.StatsResponse // before and after the read phase
	feedStats [2]server.StatsResponse // before and after the feed

	tr tracer
}

func (lm *layerMetrics) set(name string, v float64, unit string) {
	lm.rep.layer[name] = metric{v, unit}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (lm *layerMetrics) run() error {
	lm.tr.t0 = time.Now()
	lm.fromWire()
	if err := lm.replayReads(); err != nil {
		return err
	}
	if err := lm.replayTicks(); err != nil {
		return err
	}
	lm.unitCosts()
	if err := lm.durable(); err != nil {
		return err
	}
	out, err := json.Marshal(lm.tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(lm.cfg.outDir, "trace.json"), out, 0o644)
}

// fromWire derives the metrics the end-to-end run itself observed.
func (lm *layerMetrics) fromWire() {
	b, a := lm.readStats[0], lm.readStats[1]
	fb, f := lm.feedStats[0], lm.feedStats[1]
	lm.set("server.resp_bytes", ratio(float64(lm.reads.bytes), float64(len(lm.reads.latencies))), "B")
	lm.set("server.stream.ticks", float64(len(lm.feed.ticks)), "count")
	pacedTicks := 0
	for _, t := range lm.feed.ticks {
		if t.lastLine < lm.feed.pacedLines {
			pacedTicks++
		}
	}
	lm.set("server.stream.lines_per_tick", ratio(float64(lm.feed.pacedLines), float64(pacedTicks)), "count")
	lm.set("server.unary_write_p50_ms", orZero(percentile(lm.reads.writeLat, 0.5)), "ms")

	hits, misses := float64(a.Cache.Hits-b.Cache.Hits), float64(a.Cache.Misses-b.Cache.Misses)
	lm.set("anscache.hit_ratio", ratio(hits, hits+misses), "ratio")
	both := func(get func(server.StatsResponse) int64) float64 { return float64(get(a) - get(b) + get(f) - get(fb)) }
	lm.set("anscache.promotions", both(func(s server.StatsResponse) int64 { return s.Cache.Promotions }), "count")
	lm.set("anscache.invalidations", both(func(s server.StatsResponse) int64 { return s.Cache.Invalidations }), "count")
	lm.set("anscache.evictions", both(func(s server.StatsResponse) int64 { return s.Cache.Evictions }), "count")
	lm.set("planner.groups_formed", float64(a.Planner.GroupsFormed-b.Planner.GroupsFormed), "count")
	lm.set("planner.adoptions", float64(a.Planner.Adoptions-b.Planner.Adoptions), "count")
	lm.set("planner.fallbacks", float64(a.Planner.Fallbacks-b.Planner.Fallbacks), "count")
	lm.set("connquery.watch.woken", float64(f.Watch.Woken-fb.Watch.Woken), "count")
	lm.set("connquery.watch.skipped", float64(f.Watch.Skipped-fb.Watch.Skipped), "count")
	lm.set("connquery.watch.horizon_skips", float64(f.Watch.HorizonSkips-fb.Watch.HorizonSkips), "count")

	// A single node runs each query once, on itself.
	perQuery, expansions, fanouts := 1.0, 0.0, 0.0
	if a.Shards != nil && b.Shards != nil {
		perQuery = ratio(float64(a.Shards.ShardExecs-b.Shards.ShardExecs), float64(a.Shards.RouterExecs-b.Shards.RouterExecs))
		expansions = float64(a.Shards.Expansions - b.Shards.Expansions)
		fanouts = float64(a.Shards.FullFanouts - b.Shards.FullFanouts)
	}
	lm.set("connquery.shard.execs_per_query", perQuery, "count")
	lm.set("connquery.shard.expansions", expansions, "count")
	lm.set("connquery.shard.full_fanouts", fanouts, "count")

	lm.set("harness.late_p99_ms", percentile(lm.feed.lateMS, 0.99), "ms")
	lm.set("harness.backlog_lines", float64(lm.feed.backlog), "count")
}

// orZero reports an empty sample's NaN as 0: the workload sent none.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// warmTwin opens a twin in the state the server was in when the read phase
// began: the fleet inserted and, for the hot workload, the pool executed once.
func (lm *layerMetrics) warmTwin(shards int) (connquery.Database, error) {
	var db connquery.Database
	var err error
	opts := []connquery.Option{connquery.WithAnswerCache(connquery.DefaultAnswerCacheBytes)}
	if shards > 1 {
		db, err = connquery.OpenSharded(lm.w.points, lm.w.obstacles, shards, opts...)
	} else {
		db, err = connquery.Open(lm.w.points, lm.w.obstacles, opts...)
	}
	if err != nil {
		return nil, err
	}
	if lm.cfg.spec.reads == readHot {
		for i := 0; i < lm.cfg.pool; i++ {
			if req, err := lm.in.requests[i].ToRequest(); err == nil {
				_, _ = db.Exec(context.Background(), req)
			}
		}
	}
	f := lm.in.fleet
	batch := make([]connquery.Mutation, len(f.alt))
	for v := range batch {
		batch[v] = connquery.Mutation{Op: connquery.MutInsertPoint, P: f.alt[v][0], Speed: f.speed}
	}
	_, err = db.Apply(batch)
	return db, err
}

// replayed returns the i-th request of the read sequence.
func (lm *layerMetrics) replayed(i int) (int, *server.ExecRequest) {
	ri := (&readPlan{bodies: lm.in.bodies, order: lm.in.order}).request(i)
	return ri, &lm.in.requests[ri]
}

// replayReads replays the first cfg.replay requests in-process. Each gets a
// root span whose children are the harness's own sequential calls
// server.decode → connquery.exec → server.encode on one twin; the same
// request then goes through Server.Handler on a second twin in the same
// state, and the two must reconcile. A sharded twin and a bare core.Engine
// run the same requests for the cross-topology and sub-Exec figures.
func (lm *layerMetrics) replayReads() error {
	twin, err := lm.warmTwin(1)
	if err != nil {
		return err
	}
	behind, err := lm.warmTwin(1)
	if err != nil {
		return err
	}
	sharded, err := lm.warmTwin(4)
	if err != nil {
		return err
	}
	// The two twins swap roles every other request: one answers the harness's
	// direct calls while the other sits behind the handler. Both see every
	// request once and stay in the same state, and whatever makes one of them
	// a few per cent faster (where its cache and maps landed in memory) falls
	// on both sides of the ratio.
	dbs := [2]connquery.Database{twin, behind}
	var handlers [2]http.Handler
	for k, db := range dbs {
		srv, err := server.New(server.Config{DB: db})
		if err != nil {
			return err
		}
		defer srv.Close()
		handlers[k] = srv.Handler()
	}
	ctx := context.Background()

	n := min(lm.cfg.replay, len(lm.idle.samples))
	var dispatch, decode, exec, encode, handle time.Duration
	var handleUS []float64
	var reconcile [2][]float64 // by which of the two went first
	// Opening the three twins left the collector busy, and a hot request takes
	// ~12 µs: a background collection would decide which side of the ratio
	// looks slower.
	quiesce()
	for i := 0; i < n; i++ {
		ri, _ := lm.replayed(i)
		body := lm.in.bodies[ri]
		var direct []byte
		var childrenUS float64
		rec, hreq := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/exec", bytes.NewReader(body))
		directDB, handler := dbs[i/2%2], handlers[1-i/2%2]
		children := func() error {
			root := lm.tr.begin("request", -1, i)
			before := dispatch + decode + exec + encode
			sp := lm.tr.begin("server.dispatch", root, i)
			if mux, ok := handler.(*http.ServeMux); ok {
				mux.Handler(hreq)
			}
			dispatch += lm.tr.end(sp)

			sp = lm.tr.begin("server.decode", root, i)
			var env server.ExecRequest
			out := httptest.NewRecorder()
			dec := json.NewDecoder(http.MaxBytesReader(out, io.NopCloser(bytes.NewReader(body)), 8<<20))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&env); err != nil {
				return err
			}
			req, err := env.ToRequest()
			if err != nil {
				return err
			}
			decode += lm.tr.end(sp)

			sp = lm.tr.begin("connquery.exec", root, i)
			ans, err := directDB.Exec(ctx, req)
			if err != nil {
				return err
			}
			exec += lm.tr.end(sp)

			sp = lm.tr.begin("server.encode", root, i)
			out.Header().Set("Content-Type", "application/json")
			out.WriteHeader(http.StatusOK)
			enc := json.NewEncoder(out)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(server.EncodeAnswer(ans)); err != nil {
				return err
			}
			encode += lm.tr.end(sp)
			lm.tr.end(root)
			direct, childrenUS = out.Body.Bytes(), us(dispatch+decode+exec+encode-before)
			return nil
		}
		whole := func() {
			sp := lm.tr.begin("server.handler", -1, i)
			handler.ServeHTTP(rec, hreq)
			d := lm.tr.end(sp)
			handle += d
			handleUS = append(handleUS, us(d))
		}
		// Whichever runs second finds the processor's caches warm for this
		// query; taking turns keeps that out of the ratio.
		if i%2 == 0 {
			if err := children(); err != nil {
				return err
			}
			whole()
		} else {
			whole()
			if err := children(); err != nil {
				return err
			}
		}
		reconcile[i%2] = append(reconcile[i%2], childrenUS/handleUS[i])
		if rec.Code != http.StatusOK || !sameAnswer(rec.Body.Bytes(), direct) {
			lm.rep.fail(1, "replayed request %d: handler and direct call disagree", ri)
		}
	}
	// Second pass, untraced: every request is now cached, which prices a hit;
	// bypassing the cache prices a miss, on one node and on four shards.
	var hit, cold, shardCold time.Duration
	for i := 0; i < n; i++ {
		_, env := lm.replayed(i)
		req, _ := env.ToRequest()
		t0 := time.Now()
		_, _ = twin.Exec(ctx, req)
		hit += time.Since(t0)
		t0 = time.Now()
		_, _ = twin.Exec(ctx, req, connquery.WithNoCache())
		cold += time.Since(t0)
		t0 = time.Now()
		if _, err := sharded.Exec(ctx, req, connquery.WithNoCache()); err != nil {
			return err
		}
		shardCold += time.Since(t0)
	}
	fn := float64(n)
	lm.set("server.decode_us", us(decode)/fn, "us")
	lm.set("server.encode_us", us(encode)/fn, "us")
	lm.set("server.handler_us", us(handle)/fn, "us")
	lm.set("server.wire_overhead_us", 1e3*median(lm.idle.latencies)-median(handleUS), "us")
	lm.set("connquery.exec_cold_us", us(cold)/fn, "us")
	lm.set("connquery.exec_hit_us", us(hit)/fn, "us")
	lm.set("connquery.shard.exec_ratio", ratio(float64(shardCold), float64(cold)), "ratio")
	// Per request, then the median: on the hot workload the sums belong to
	// the few requests that miss, whose cost differs by a factor of two with
	// which of the two twins ran them on a cold processor cache. The median
	// is taken within each order and the two are averaged: the ratios of the
	// two orders form two clusters, and a median over both would sit in the
	// gap between them and jump from one to the other between runs.
	rr := (median(reconcile[0]) + median(reconcile[1])) / 2
	lm.set("harness.trace.reconcile_ratio", rr, "ratio")
	if rr < 0.9 || rr > 1.1 {
		lm.rep.invalid = append(lm.rep.invalid, fmt.Sprintf("trace does not reconcile: median children ÷ handler = %.3f", rr))
	}
	// What recording the spans cost, against what they measured (estimate:
	// the unit cost of a begin/end pair times the pairs recorded).
	var probe tracer
	probe.t0 = time.Now()
	for i := 0; i < 100000; i++ {
		probe.end(probe.begin("probe", -1, i))
	}
	perSpan := time.Since(probe.t0) / 100000
	lm.set("harness.trace.overhead_ratio", 1+ratio(float64(perSpan)*6*fn, float64(dispatch+decode+exec+encode+handle)), "ratio")

	return lm.engineDirect(n, us(cold)/fn)
}

// engineDirect runs the replayed CONN/COkNN/ONN requests on a bare
// core.Engine over the same objects, then prices the R-tree and the
// visibility graph on exactly the work those queries did.
func (lm *layerMetrics) engineDirect(n int, execColdUS float64) error {
	f := lm.in.fleet
	t0 := time.Now()
	data := rtree.New(rtree.Options{PageSize: 4096})
	items := make([]rtree.Item, len(lm.w.points))
	for i, p := range lm.w.points {
		items[i] = rtree.PointItem(int32(i), p)
	}
	data.BulkLoad(items)
	obst := rtree.New(rtree.Options{PageSize: 4096})
	items = make([]rtree.Item, len(lm.w.obstacles))
	for i, o := range lm.w.obstacles {
		items[i] = rtree.ObstacleItem(int32(i), o)
	}
	obst.BulkLoad(items)
	lm.set("rtree.bulkload_ms", ms(time.Since(t0)), "ms")
	t0 = time.Now()
	kernel := flatgeom.NewKernel(lm.w.obstacles)
	lm.set("flatgeom.kernel_build_ms", ms(time.Since(t0)), "ms")
	for v := range f.alt { // the fleet, as the server's warm-up inserted it
		data.Insert(rtree.PointItem(int32(len(lm.w.points)+v), f.alt[v][0]))
	}
	dc, oc := &stats.PageCounter{}, &stats.PageCounter{}
	data.SetAccessRecorder(dc)
	obst.SetAccessRecorder(oc)
	eng := &core.Engine{Data: data, Obst: obst, Obstacles: lm.w.obstacles, Kernel: kernel, Epoch: 1,
		DataCounter: dc, ObstCounter: oc}

	type done struct {
		seg      geom.Segment
		isSeg    bool
		p        geom.Point
		npe, noe int
		reach    float64
	}
	var runs []done
	byKind := map[string][]float64{}
	var npe, noe, svg, wireNPE, wireNOE, wireSVG int
	var engine time.Duration
	for i := 0; i < n; i++ {
		ri, env := lm.replayed(i)
		var m stats.QueryMetrics
		d := done{}
		t0 := time.Now()
		switch env.Kind {
		case "CONN":
			d.seg, d.isSeg = geom.Seg(geom.Pt(env.Seg.A.X, env.Seg.A.Y), geom.Pt(env.Seg.B.X, env.Seg.B.Y)), true
			_, m = eng.CONN(d.seg)
		case "COkNN":
			d.seg, d.isSeg = geom.Seg(geom.Pt(env.Seg.A.X, env.Seg.A.Y), geom.Pt(env.Seg.B.X, env.Seg.B.Y)), true
			_, m = eng.COkNN(d.seg, env.K)
		case "ONN":
			d.p = geom.Pt(env.P.X, env.P.Y)
			_, m = eng.ONN(d.p, env.K)
		default:
			continue // ObstructedDist reports no NPE/NOE/|SVG| of its own
		}
		el := time.Since(t0)
		engine += el
		byKind[env.Kind] = append(byKind[env.Kind], us(el))
		d.npe, d.noe, d.reach = m.NPE, m.NOE, m.Reach
		runs = append(runs, d)
		npe, noe, svg = npe+m.NPE, noe+m.NOE, svg+m.SVG
		var wire server.ExecResponse
		if err := json.Unmarshal(lm.idle.samples[i].body, &wire); err != nil || lm.idle.samples[i].req != ri {
			lm.rep.fail(1, "idle replay sample %d does not match request %d: %v", i, ri, err)
			continue
		}
		wireNPE, wireNOE, wireSVG = wireNPE+wire.Metrics.NPE, wireNOE+wire.Metrics.NOE, wireSVG+wire.Metrics.SVG
	}
	lm.rep.attempted++
	if npe != wireNPE || noe != wireNOE || svg != wireSVG {
		lm.rep.fail(1, "core.Engine NPE/NOE/|SVG| sums %d/%d/%d differ from the wire answers' %d/%d/%d", npe, noe, svg, wireNPE, wireNOE, wireSVG)
	}
	k := float64(max(len(runs), 1))
	for _, kind := range []string{"CONN", "COkNN", "ONN"} {
		lm.set("core.query_us."+kind, orZero(mean(byKind[kind])), "us")
	}
	lm.set("core.npe", float64(npe)/k, "count")
	lm.set("core.noe", float64(noe)/k, "count")
	lm.set("core.svg", float64(svg)/k, "count")
	lm.set("rtree.node_accesses", float64(dc.Accesses()+oc.Accesses())/k, "count")
	// Exec's own share: what a cold Exec costs beyond the engine call
	// (estimate: two separate passes over the same requests).
	lm.set("connquery.exec_self_us", execColdUS-us(engine)/k, "us")

	// R-tree: pop as many items, best-first, as each query evaluated.
	var pops int
	t0 = time.Now()
	for _, d := range runs {
		var target rtree.DistanceTarget = rtree.PointTarget{P: d.p}
		if d.isSeg {
			target = rtree.SegmentTarget{Seg: d.seg}
		}
		it := data.NewNearestIter(target)
		for j := 0; j < d.npe; j++ {
			if _, _, ok := it.Next(); !ok {
				break
			}
			pops++
		}
		it = obst.NewNearestIter(target)
		for j := 0; j < d.noe; j++ {
			if _, _, ok := it.Next(); !ok {
				break
			}
			pops++
		}
	}
	lm.set("rtree.next_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(pops)), "ns")

	// Visibility graph: load the obstacles each query loaded (those within
	// its retrieval footprint), add its endpoints, settle from one of them.
	var addObst, addPt, settle time.Duration
	var nObst, nPt, nNodes int
	var blocked time.Duration
	var nBlocked int
	var marks flatgeom.Marks
	for _, d := range runs {
		if !d.isSeg || !(d.reach <= side) { // unbounded or NaN footprint
			continue
		}
		ids := kernel.AppendIntersectingIDs(nil, d.seg.Bounds().Buffer(d.reach))
		g := visgraph.New()
		g.SetKernel(kernel)
		t0 := time.Now()
		g.AddObstacleIDs(ids)
		addObst += time.Since(t0)
		nObst += len(ids)
		t0 = time.Now()
		a := g.AddPoint(d.seg.A, visgraph.KindAnchor)
		g.AddPoint(d.seg.B, visgraph.KindAnchor)
		addPt += time.Since(t0)
		nPt += 2
		t0 = time.Now()
		g.NewSearch(a).SettleAll()
		settle += time.Since(t0)
		nNodes += g.NumNodes()

		// Sight lines from the query's start to each loaded obstacle's corner.
		marks.Reset(kernel.NumObstacles())
		for _, id := range ids {
			marks.Set(id)
		}
		t0 = time.Now()
		for _, id := range ids {
			c := kernel.Rect(id).Vertices()[0]
			kernel.Blocked(&marks, d.seg.A.X, d.seg.A.Y, c.X, c.Y, geom.Seg(d.seg.A, c).Length())
		}
		blocked += time.Since(t0)
		nBlocked += len(ids)
	}
	lm.set("visgraph.add_obstacle_us", ratio(us(addObst), float64(nObst)), "us")
	lm.set("visgraph.add_point_us", ratio(us(addPt), float64(nPt)), "us")
	lm.set("visgraph.settle_ns_per_node", ratio(float64(settle.Nanoseconds()), float64(nNodes)), "ns")
	lm.set("flatgeom.blocked_ns", ratio(float64(blocked.Nanoseconds()), float64(nBlocked)), "ns")

	// Copy-on-write R-tree edits and kernel extension, one object at a time
	// as a unary mutation pays them.
	var cowIns, cowDel, extend time.Duration
	const reps = 200
	extended := append(append([]geom.Rect(nil), lm.w.obstacles...), geom.R(1, 1, 2, 2))
	for j := 0; j < reps; j++ {
		v := j % len(f.alt)
		old := rtree.PointItem(int32(len(lm.w.points)+v), f.alt[v][0])
		t0 := time.Now()
		c := data.CloneCOW()
		c.Delete(old)
		cowDel += time.Since(t0)
		t0 = time.Now()
		c = data.CloneCOW()
		c.Insert(rtree.PointItem(int32(len(lm.w.points)+len(f.alt)+j), f.alt[v][1]))
		cowIns += time.Since(t0)
		t0 = time.Now()
		kernel.Extend(extended)
		extend += time.Since(t0)
	}
	lm.set("rtree.cow_insert_us", us(cowIns)/reps, "us")
	lm.set("rtree.cow_delete_us", us(cowDel)/reps, "us")
	lm.set("flatgeom.extend_us", us(extend)/reps, "us")
	return nil
}

// feedBatches returns the first cfg.lines moves of the feed as ticks of b
// lines, each move naming the PID the vehicle holds at that point — what the
// server's acknowledgements told the wire run.
func (lm *layerMetrics) feedBatches(b int) [][]connquery.Mutation {
	f := lm.in.fleet
	pids := make([]int32, len(f.alt))
	for v := range pids {
		pids[v] = int32(len(lm.w.points) + v)
	}
	next := int32(len(lm.w.points) + len(f.alt))
	var out [][]connquery.Mutation
	for i := 0; i < lm.cfg.lines; i++ {
		if i%b == 0 {
			out = append(out, nil)
		}
		v, p, _ := f.line(i)
		out[len(out)-1] = append(out[len(out)-1], connquery.Mutation{Op: connquery.MutMovePoint, ID: pids[v], P: p})
		pids[v] = next // a move's insert takes the next free PID
		next++
	}
	return out
}

// replayTicks replays the head of the feed through DB.Apply at three tick
// sizes, on a sharded twin, and under 64 watchers. The 16-line replay is the
// traced one: each tick's connquery.apply span is followed by sibling direct
// calls doing the same tick's R-tree, WAL and cache work in isolation.
func (lm *layerMetrics) replayTicks() error {
	f := lm.in.fleet
	walDir, err := os.MkdirTemp(lm.cfg.workDir, "wal-")
	if err != nil {
		return err
	}
	ww, err := wal.Create(walDir, 2, wal.Options{SyncWindow: 2 * time.Millisecond})
	if err != nil {
		return err
	}
	defer ww.Close()
	cache := filledCache()
	tree := rtree.New(rtree.Options{PageSize: 4096})
	items := make([]rtree.Item, 0, len(lm.w.points)+len(f.alt))
	for i, p := range lm.w.points {
		items = append(items, rtree.PointItem(int32(i), p))
	}
	for v := range f.alt {
		items = append(items, rtree.PointItem(int32(len(lm.w.points)+v), f.alt[v][0]))
	}
	tree.BulkLoad(items)
	pos := map[int32]geom.Point{}
	for _, it := range items {
		pos[it.ID] = it.Point()
	}

	var appendT, syncT time.Duration
	var records, syncs int
	epoch := uint64(2)
	for _, b := range []int{1, 16, 256} {
		db, err := lm.warmTwin(1)
		if err != nil {
			return err
		}
		batches := lm.feedBatches(b)
		perTick := make([]float64, len(batches))
		next := int32(len(lm.w.points) + len(f.alt))
		for t, batch := range batches {
			traced := b == 16
			var sp int
			if traced {
				sp = lm.tr.begin("connquery.apply", -1, t)
			}
			t0 := time.Now()
			res, err := db.Apply(batch)
			perTick[t] = us(time.Since(t0))
			if traced {
				lm.tr.end(sp)
			}
			if err != nil || res.Applied != 2*len(batch) {
				return fmt.Errorf("replayed tick %d: applied %d of %d, %v", t, res.Applied, 2*len(batch), err)
			}
			if !traced {
				continue
			}
			// The same tick's work on each layer alone.
			sp = lm.tr.begin("rtree.cow", -1, t)
			tree = tree.CloneCOW()
			box := geom.Rect{}
			recs := make([]wal.Record, 0, 2*len(batch))
			for k, m := range batch {
				old := pos[m.ID]
				tree.Delete(rtree.PointItem(m.ID, old))
				tree.Insert(rtree.PointItem(next, m.P))
				delete(pos, m.ID)
				pos[next] = m.P
				if k == 0 {
					box = geom.RectFromPoints(old, m.P)
				} else {
					box = box.ExpandPoint(old).ExpandPoint(m.P)
				}
				recs = append(recs, wal.Record{Op: wal.OpDeletePoint, ID: m.ID, Epoch: epoch, Coords: [4]float64{old.X, old.Y}},
					wal.Record{Op: wal.OpInsertPoint, ID: next, Epoch: epoch + 1, Coords: [4]float64{m.P.X, m.P.Y}})
				epoch += 2
				next++
			}
			lm.tr.end(sp)
			sp = lm.tr.begin("wal.append", -1, t)
			if err := ww.AppendBatch(recs); err != nil {
				return err
			}
			appendT += lm.tr.end(sp)
			records += len(recs)
			sp = lm.tr.begin("wal.sync", -1, t)
			if err := ww.Sync(); err != nil {
				return err
			}
			syncT += lm.tr.end(sp)
			syncs++
			sp = lm.tr.begin("anscache.invalidate", -1, t)
			cache.InvalidateBatch(uint64(t+1), uint64(t+2), box, geom.Rect{}, true, false)
			lm.tr.end(sp)
		}
		total := 0.0
		for _, v := range perTick {
			total += v
		}
		lm.set(fmt.Sprintf("connquery.apply.us_per_line.b%d", b), total/float64(lm.cfg.lines), "us")
		if b == 16 {
			tenth := max(len(perTick)/10, 1)
			lm.set("connquery.apply.growth_ratio", ratio(mean(perTick[len(perTick)-tenth:]), mean(perTick[:tenth])), "ratio")
		}
	}
	lm.set("wal.append_us_per_record", ratio(us(appendT), float64(records)), "us")
	lm.set("wal.sync_us", ratio(us(syncT), float64(syncs)), "us")
	lm.set("wal.bytes_per_record", float64(len(wal.AppendFrame(nil, wal.Record{Op: wal.OpInsertPoint}))), "B")
	if err := ww.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	scan, err := wal.ScanDir(walDir, 4096, nil)
	if err != nil {
		return err
	}
	lm.set("wal.scan_records_s", ratio(float64(len(scan.Records)), time.Since(t0).Seconds()), "1/s")

	// Four shards: every member of a tick commits, and publishes, on its own.
	sdb, err := lm.warmTwin(4)
	if err != nil {
		return err
	}
	batches := lm.feedBatches(16)
	v0 := sdb.Version()
	t0 = time.Now()
	for _, batch := range batches {
		if _, err := sdb.Apply(batch); err != nil {
			return err
		}
	}
	lm.set("connquery.shard.apply_us_per_line", us(time.Since(t0))/float64(lm.cfg.lines), "us")
	perTick := 1.0 // DB.Apply publishes one version per tick
	if lm.cfg.spec.shards > 1 {
		perTick = float64(sdb.Version()-v0) / float64(len(batches))
	}
	lm.set("connquery.shard.epochs_per_tick", perTick, "count")

	return lm.watchFanout()
}

// filledCache returns an answer cache holding 4 096 entries with small
// impact regions spread over the space.
func filledCache() *anscache.Cache {
	c := anscache.New(connquery.DefaultAnswerCacheBytes)
	for i := 0; i < 4096; i++ {
		x, y := float64(i%64)*side/64, float64(i/64)*side/64
		c.Put(fmt.Sprintf("key-%04d", i), 1, i, anscache.Region{Rect: geom.R(x, y, x+100, y+100), Points: true, Obstacles: true}, 512)
	}
	return c
}

// watchFanout times commit → last delivery with 64 DB.Watch subscribers on
// the fleet's watch request, one inner-vehicle tick at a time.
func (lm *layerMetrics) watchFanout() error {
	dbi, err := lm.warmTwin(1)
	if err != nil {
		return err
	}
	db := dbi.(*connquery.DB)
	f := lm.in.fleet
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const subscribers, rounds = 64, 20
	var wg sync.WaitGroup
	// Room for every delivery of every round, so no subscriber ever blocks.
	delivered := make(chan time.Time, subscribers*(rounds+1))
	for s := 0; s < subscribers; s++ {
		ch, err := db.Watch(ctx, connquery.CONNRequest{Seg: f.watch})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch { // closed by the library once ctx is cancelled
				delivered <- time.Now()
			}
		}()
	}
	drain := func() time.Time {
		var last time.Time
		for s := 0; s < subscribers; s++ {
			last = <-delivered
		}
		return last
	}
	drain() // initial answers
	var lat []float64
	batches := lm.feedBatches(4)
	for r := 0; r < rounds && r < len(batches); r++ {
		t0 := time.Now()
		if _, err := db.Apply(batches[r]); err != nil {
			return err
		}
		lat = append(lat, us(drain().Sub(t0)))
	}
	cancel()
	wg.Wait()
	lm.set("connquery.watch.fanout_us", median(lat), "us")
	return nil
}

// unitCosts times the layers no replay reaches: the answer cache and the
// planner on their own, Open, and a unary insert.
func (lm *layerMetrics) unitCosts() {
	const n = 4096
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	c := anscache.New(connquery.DefaultAnswerCacheBytes)
	rg := anscache.Region{Rect: geom.R(0, 0, 100, 100), Points: true}
	t0 := time.Now()
	for i, k := range keys {
		c.Put(k, 1, i, rg, 512)
	}
	lm.set("anscache.put_ns", float64(time.Since(t0).Nanoseconds())/n, "ns")
	t0 = time.Now()
	for _, k := range keys {
		c.Get(k, 1)
	}
	lm.set("anscache.get_ns", float64(time.Since(t0).Nanoseconds())/n, "ns")
	full := filledCache()
	t0 = time.Now()
	const sweeps = 100
	for i := 0; i < sweeps; i++ {
		x := float64(i) * side / sweeps
		full.InvalidateBatch(uint64(i+1), uint64(i+2), geom.R(x, x, x+5, x+5), geom.Rect{}, true, false)
	}
	lm.set("anscache.invalidate_us", us(time.Since(t0))/sweeps, "us")

	p := planner.New(64)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		x := float64(i%64) * side / 64
		if t := p.Admit(1, geom.R(x, x, x+100, x+100), side/32, side/4); t != nil {
			t.Done()
		}
	}
	lm.set("planner.admit_ns", float64(time.Since(t0).Nanoseconds())/n, "ns")

	var opens []float64
	var db *connquery.DB
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		db, _ = connquery.Open(lm.w.points, lm.w.obstacles)
		opens = append(opens, ms(time.Since(t0)))
	}
	lm.set("connquery.open_ms", median(opens), "ms")
	var ins time.Duration
	const reps = 200
	for i := 0; i < reps; i++ {
		p := lm.in.fleet.alt[i%len(lm.in.fleet.alt)][0]
		t0 = time.Now()
		pid, err := db.InsertPoint(p)
		ins += time.Since(t0)
		if err == nil {
			db.DeletePoint(pid)
		}
	}
	lm.set("connquery.insert_point_us", us(ins)/reps, "us")
}

// durable times a checkpoint and a crash recovery on a durable twin that has
// taken the replayed feed: the data directory is copied while the handle is
// still open — what kill -9 would leave — and the copy is recovered.
func (lm *layerMetrics) durable() error {
	dir, err := os.MkdirTemp(lm.cfg.workDir, "durable-")
	if err != nil {
		return err
	}
	f := lm.in.fleet
	db, err := connquery.OpenDurable(dir, connquery.WithBootstrapData(lm.w.points, lm.w.obstacles),
		connquery.WithGroupCommit(2*time.Millisecond), connquery.WithSyncAck(), connquery.WithCheckpointEvery(-1))
	if err != nil {
		return err
	}
	defer db.Close()
	batch := make([]connquery.Mutation, len(f.alt))
	for v := range batch {
		batch[v] = connquery.Mutation{Op: connquery.MutInsertPoint, P: f.alt[v][0], Speed: f.speed}
	}
	if _, err := db.Apply(batch); err != nil {
		return err
	}
	batches := lm.feedBatches(16)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		if _, err := db.Apply(b); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	lm.set("connquery.checkpoint_ms", ms(time.Since(t0)), "ms")
	for _, b := range batches[half:] {
		if _, err := db.Apply(b); err != nil {
			return err
		}
	}
	crashed := dir + "-crashed"
	if err := copyDir(dir, crashed); err != nil {
		return err
	}
	t0 = time.Now()
	rdb, err := connquery.OpenDurable(crashed)
	if err != nil {
		return fmt.Errorf("recover the copied data directory: %w", err)
	}
	lm.set("connquery.recover_ms", ms(time.Since(t0)), "ms")
	lm.rep.attempted++
	if rdb.Version() != db.Version() || rdb.NumPoints() != db.NumPoints() {
		lm.rep.fail(1, "durable twin recovered to epoch %d with %d points, want %d with %d", rdb.Version(), rdb.NumPoints(), db.Version(), db.NumPoints())
	}
	return rdb.Close()
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err == nil {
			_, err = io.Copy(dst, src)
			if cerr := dst.Close(); err == nil {
				err = cerr
			}
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
