package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"connquery"
	"connquery/internal/geom"
	"connquery/internal/wal"
	"connquery/server"
)

// readKind selects a workload's read traffic.
type readKind int

const (
	readTable readKind = iota // distinct Table 2 requests: the engine does the work
	readShort                 // distinct short requests: cheap engine work, no reuse
	readHot                   // Zipf draws from a pooled set of short requests: the cache does the work
)

// spec is one named workload; BENCHMARK.json and README.md say why each
// exists. Every workload runs the same phases — boot,
// warm-up, closed-loop reads, paced feed, burst feed, kill -9, restart — so
// that every end-to-end metric exists on every workload; what differs is the
// read traffic, the topology, the durability and where the time goes.
type spec struct {
	name       string
	shards     int
	durable    bool
	reads      readKind
	writeEvery int     // client 0 turns every n-th of its operations into a unary write
	feedFirst  bool    // run the feed before the reads (see commuter_hot)
	spread     bool    // fleet over all shard cells, one vehicle in ten crossing the border
	readShare  float64 // of -seconds; the paced feed takes pacedShare, the burst the rest
	pacedShare float64
}

var specs = []spec{
	{name: "route_cold", shards: 1, reads: readTable, readShare: 0.50, pacedShare: 0.42},
	// commuter_hot feeds first: its unary inserts leave the bulk-loaded R-tree
	// in one of three shapes, by seed, on which DB.Apply then costs ~60, ~95 or
	// ~240 µs per moved point. Fed before the first unary write, the node is
	// always in the state route_cold's is, and the feed metrics are one-valued.
	{name: "commuter_hot", shards: 1, reads: readHot, writeEvery: 50, feedFirst: true, readShare: 0.50, pacedShare: 0.42},
	{name: "fleet_motion", shards: 1, durable: true, reads: readShort, readShare: 0.15, pacedShare: 0.65},
	{name: "district_sharded", shards: 4, reads: readTable, spread: true, readShare: 0.50, pacedShare: 0.42},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runConfig sizes one run. fullSize is what BENCHMARK.json freezes; the smoke
// test shrinks everything.
type runConfig struct {
	spec     spec
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // dataset cardinality scale (1 = the paper's sizes)
	vehicles int
	pool     int    // pooled requests of the hot read phase
	boots    int    // set-ups per run; setup_s reports their median
	restarts int    // kill -9 / restart rounds; recover_s reports their median
	replay   int    // requests the traced run replays
	lines    int    // feed lines the traced run replays
	serveBin string // connserve binary; empty = in-process listener
	workDir  string // scratch, removed after the run
	outDir   string // generated inputs and trace.json
}

func fullSize(s spec, seed int64, seconds float64) runConfig {
	return runConfig{spec: s, seed: seed, seconds: seconds, scale: 0.1, vehicles: 2048, pool: 4096, boots: 5, restarts: 5, replay: 200, lines: 2000}
}

const (
	zipfS        = 1.1
	pinnedChecks = 32 // CONN answers compared across the restart
	sampleEach   = 10 // every n-th response goes to the answer oracle
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	workload  string
	e2e       map[string]metric
	layer     map[string]metric
	samples   map[string]int // sample count behind each timing metric
	attempted int
	failed    int
	failures  []string // first few failure messages
	invalid   []string // generator-honesty violations: the run must not be averaged in
}

func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.invalid) == 0 }

// runWorkload executes one run of cfg.spec end to end.
func runWorkload(cfg runConfig) (rep *report, err error) {
	rep = &report{workload: cfg.spec.name, e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string]int{}}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}

	// Inputs, all from the seed.
	w := newWorld(cfg.scale)
	pointsCSV, obstaclesCSV, err := w.writeCSV(cfg.workDir)
	if err != nil {
		return nil, err
	}
	in := generate(w, cfg)
	if err := writeInputs(cfg.outDir, in.requests, in.order, in.writes, in.fleet, cfg.lines); err != nil {
		return nil, err
	}

	// Set-up: boot several times (each from scratch, a durable node writing
	// its bootstrap checkpoint every time), keep the last, then warm it.
	nc := nodeConfig{bin: cfg.serveBin, pointsCSV: pointsCSV, obstaclesCSV: obstaclesCSV, shards: cfg.spec.shards}
	var n *node
	defer func() {
		if n != nil {
			n.kill()
		}
	}()
	var bootS []float64
	quiesce()
	for b := 0; b < cfg.boots; b++ {
		if n != nil {
			n.kill()
		}
		if cfg.spec.durable {
			nc.dataDir = filepath.Join(cfg.workDir, fmt.Sprintf("data-%d", b))
		}
		var boot time.Duration
		if n, boot, err = startNode(nc); err != nil {
			return nil, err
		}
		bootS = append(bootS, boot.Seconds())
	}
	warmStart := time.Now()
	if cfg.spec.reads == readHot {
		fill := runReads(n.url, &readPlan{bodies: in.bodies[:cfg.pool], sampleEach: 1 << 30}, clients, 0, cfg.pool)
		rep.attempted += len(fill.latencies)
		if fill.failed > 0 {
			rep.fail(fill.failed, "pool fill: %v", fill.failures)
		}
	}
	pids, inserts, err := insertFleet(n.url, in.fleet)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(inserts)
	warm := time.Since(warmStart).Seconds()
	rep.e2e["setup_s"] = metric{median(bootS) + warm, "s"}
	rep.layer["harness.setup.boot_s"] = metric{median(bootS), "s"}
	rep.layer["harness.setup.warm_s"] = metric{warm, "s"}

	// The two measured phases. Traced runs first replay the head of the read
	// sequence on one idle connection; the same requests are replayed
	// in-process afterwards.
	var idle, reads *readResult
	var feed *feedResult
	var readStats, feedStats [2]server.StatsResponse
	readPhase := func() error {
		plan := &readPlan{bodies: in.bodies, order: in.order, writeEvery: cfg.spec.writeEvery, writes: in.writes, sampleEach: sampleEach}
		if cfg.trace {
			idle = runReads(n.url, &readPlan{bodies: in.bodies, order: in.order, sampleEach: 1}, 1, 0, cfg.replay)
			rep.attempted += len(idle.latencies)
			if idle.failed > 0 {
				rep.fail(idle.failed, "idle replay: %v", idle.failures)
			}
			plan.start = cfg.replay
		}
		if readStats[0], err = n.stats(); err != nil {
			return err
		}
		quiesce()
		reads = runReads(n.url, plan, clients, seconds(cfg.seconds*cfg.spec.readShare), 0)
		if readStats[1], err = n.stats(); err != nil {
			return err
		}
		rep.attempted += len(reads.latencies) + len(reads.writeLat) + reads.failed
		if reads.failed > 0 {
			rep.fail(reads.failed, "read phase: %v", reads.failures)
		}
		if len(reads.latencies) == 0 {
			return errors.New("read phase completed no request")
		}
		rep.e2e["query_ops_s"] = metric{float64(len(reads.latencies)) / reads.elapsed.Seconds(), "1/s"}
		rep.e2e["query_p50_ms"] = metric{percentile(reads.latencies, 0.50), "ms"}
		rep.e2e["query_p99_ms"] = metric{percentile(reads.latencies, 0.99), "ms"}
		rep.samples["query"] = len(reads.latencies)
		return nil
	}
	feedPhase := func() error {
		var walRecords func() (int, error)
		if cfg.spec.durable {
			walRecords = func() (int, error) { return walTail(nc.dataDir) }
		}
		if feedStats[0], err = n.stats(); err != nil {
			return err
		}
		quiesce()
		resume := pauseGC()
		feed, err = runFeed(n.url, in.fleet, pids, seconds(cfg.seconds*cfg.spec.pacedShare),
			seconds(cfg.seconds*(1-cfg.spec.readShare-cfg.spec.pacedShare)), walRecords)
		resume()
		if err != nil {
			return err
		}
		if feedStats[1], err = n.stats(); err != nil {
			return err
		}
		rep.attempted += len(feed.lines) + len(feed.updates)
		for _, f := range feed.failures {
			rep.fail(1, "feed: %s", f)
		}
		rep.invalid = append(rep.invalid, feed.invalid...)
		rep.e2e["mutation_ack_p50_ms"] = metric{windowed(feed.ackAt, feed.ackMS, 0.50), "ms"}
		rep.e2e["ingest_lines_s"] = metric{feed.burstRate, "1/s"}
		rep.e2e["watch_lag_p50_ms"] = metric{windowed(feed.lagAt, feed.lagMS, 0.50), "ms"}
		// The feed's tails are reported, not gated: between two runs of one
		// binary on one seed they differ by 20-30 %, more than the widest
		// bound the driver accepts (see README, "Why the feed's p99s are
		// per-layer metrics").
		rep.layer["server.stream.ack_p99_ms"] = metric{windowed(feed.ackAt, feed.ackMS, 0.99), "ms"}
		rep.layer["connquery.watch.lag_p99_ms"] = metric{windowed(feed.lagAt, feed.lagMS, 0.99), "ms"}
		rep.samples["mutation_ack"] = len(feed.ackMS)
		rep.samples["watch_lag"] = len(feed.lagMS)
		rep.samples["ingest"] = feed.burstLines
		return nil
	}
	phases := []func() error{readPhase, feedPhase}
	if cfg.spec.feedFirst {
		phases = []func() error{feedPhase, readPhase}
	}
	for _, phase := range phases {
		if err := phase(); err != nil {
			return nil, err
		}
	}
	acked, err := n.stats()
	if err != nil {
		return nil, err
	}

	// Answers to find again after the crash, and the node's last measurements.
	pinned := w.shortRequests(cfg.seed+1, 2*pinnedChecks, districtBox)
	var pinnedBodies [][]byte
	for i := range pinned {
		if pinned[i].Kind == "CONN" && len(pinnedBodies) < pinnedChecks {
			pinnedBodies = append(pinnedBodies, mustJSON(&pinned[i]))
		}
	}
	pinnedBefore := runReads(n.url, &readPlan{bodies: pinnedBodies, sampleEach: 1}, 1, 0, len(pinnedBodies))
	rep.attempted += len(pinnedBodies)
	if pinnedBefore.failed > 0 {
		rep.fail(pinnedBefore.failed, "pinned answers: %v", pinnedBefore.failures)
	}
	rss, err := n.rssPeakMB()
	if err != nil {
		return nil, err
	}
	rep.e2e["rss_peak_mb"] = metric{rss, "MB"}
	dataMB := 0.0
	if cfg.spec.durable {
		if dataMB, err = dirMB(nc.dataDir); err != nil {
			return nil, err
		}
	}
	rep.layer["wal.data_dir_mb"] = metric{dataMB, "MB"}

	// Crash and restart, several times for a median. The round leaves the
	// last restarted node in n.
	restartRound := func() (float64, error) {
		rounds := cfg.restarts
		if cfg.spec.durable {
			rounds = (rounds + 1) / 2 // a log replay takes a second, and varies by 3 %
		}
		var recoverS []float64
		quiesce()
		defer pauseGC()()
		for r := 0; r < rounds; r++ {
			if n != nil {
				n.kill()
			}
			var boot time.Duration
			if n, boot, err = startNode(nc); err != nil {
				return 0, fmt.Errorf("restart: %w", err)
			}
			recoverS = append(recoverS, boot.Seconds())
		}
		return median(recoverS), nil
	}
	recoverS, err := restartRound()
	if err != nil {
		return nil, err
	}
	rep.attempted += 1 + len(pinnedBodies)
	recovered, err := n.stats()
	if err != nil {
		return nil, err
	}
	if cfg.spec.durable {
		// Every line was acknowledged under -sync-ack before the kill, so
		// the recovered node must hold exactly the acked state.
		if recovered.Epoch < acked.Epoch || recovered.Points != acked.Points || recovered.Obstacles != acked.Obstacles {
			rep.fail(1, "recovered epoch %d points %d obstacles %d, acked epoch %d points %d obstacles %d",
				recovered.Epoch, recovered.Points, recovered.Obstacles, acked.Epoch, acked.Points, acked.Obstacles)
		}
		pinnedAfter := runReads(n.url, &readPlan{bodies: pinnedBodies, sampleEach: 1}, 1, 0, len(pinnedBodies))
		if pinnedAfter.failed > 0 {
			rep.fail(pinnedAfter.failed, "pinned answers after restart: %v", pinnedAfter.failures)
		}
		for i := range pinnedAfter.samples {
			if !sameAnswer(pinnedBefore.samples[i].body, pinnedAfter.samples[i].body) {
				rep.fail(1, "pinned answer %d differs after recovery", i)
			}
		}
	} else if recovered.Epoch != 1 || recovered.Points != len(w.points) || recovered.Obstacles != len(w.obstacles) {
		// An in-memory node restarts from its CSVs: the generated dataset at epoch 1.
		rep.fail(1, "restarted epoch %d points %d obstacles %d, dataset has %d points %d obstacles",
			recovered.Epoch, recovered.Points, recovered.Obstacles, len(w.points), len(w.obstacles))
	}
	n.kill()
	n = nil

	// Answer oracle: replay everything acknowledged on an in-process twin, in
	// the order the phases ran.
	o := newOracle(w, rep)
	o.applyInserts(in.fleet, inserts)
	checks := []func(){
		func() {
			if idle != nil {
				o.checkReads(in.requests, idle.samples, nil)
			}
			o.checkReads(in.requests, reads.samples, reads.writes)
		},
		func() { o.checkFeed(in.fleet, feed, feedStats[1], cfg.spec.feedFirst) },
	}
	if cfg.spec.feedFirst {
		checks[0], checks[1] = checks[1], checks[0]
	}
	checks[0]()
	checks[1]()

	// An in-memory node comes back in ~50 ms, and this host has a slow state
	// (+20 % on everything, for a second or several, at random) that decides
	// a round that short: the median of one round of restarts takes one of two
	// values, run by run. Such a node restarts exactly as it booted, so the
	// set-up's boots are a round too, and a third follows the oracle's
	// seconds of work; the round the host disturbed least is reported.
	if !cfg.spec.durable {
		again, err := restartRound()
		if err != nil {
			return nil, err
		}
		n.kill()
		n = nil
		recoverS = min(median(bootS), recoverS, again)
	}
	rep.e2e["recover_s"] = metric{recoverS, "s"}

	if cfg.trace {
		lm := layerMetrics{cfg: cfg, w: w, in: in, rep: rep, idle: idle, reads: reads, feed: feed,
			readStats: readStats, feedStats: feedStats}
		if err := lm.run(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// quiesce collects the harness's garbage now, so that its collector is idle
// when a measured phase starts: on two vCPUs a background collection in the
// generator is CPU taken from the server.
func quiesce() { runtime.GC() }

// pauseGC keeps the harness's collector off for a phase that allocates
// little (the feed, the restarts); the returned func turns it back on.
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// walTail returns how many records the durable node's WAL holds since its
// last checkpoint, from the segment sizes: every mutation of the feed is a
// point record of one fixed size.
func walTail(dataDir string) (int, error) {
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	var bytes int64
	for _, seg := range segs {
		info, err := os.Stat(seg)
		if err != nil {
			return 0, err
		}
		bytes += info.Size()
	}
	return int(bytes) / len(wal.AppendFrame(nil, wal.Record{Op: wal.OpInsertPoint})), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// inputs is the generated traffic of one run.
type inputs struct {
	requests []server.ExecRequest
	bodies   [][]byte
	order    []int32 // read sequence as indices into requests; nil = in turn
	writes   []geom.Point
	fleet    *fleet
}

func generate(w *world, cfg runConfig) *inputs {
	in := &inputs{fleet: w.newFleet(cfg.seed, cfg.vehicles, cfg.spec.spread)}
	switch cfg.spec.reads {
	case readTable:
		// Twice what two clients complete in the longest read phase today.
		in.requests = w.tableRequests(cfg.seed, int(400*cfg.seconds)+cfg.replay)
	case readShort:
		in.requests = w.shortRequests(cfg.seed, int(6000*cfg.seconds)+cfg.replay, districtBox)
	case readHot:
		in.requests = w.shortRequests(cfg.seed, cfg.pool, poolBox)
		in.order = zipfSequence(cfg.seed, 1<<19, cfg.pool, zipfS)
		in.writes = w.unaryWrites(cfg.seed, 4096)
	}
	in.bodies = make([][]byte, len(in.requests))
	for i := range in.requests {
		in.bodies[i] = mustJSON(&in.requests[i])
	}
	return in
}

// insertFleet registers the fleet through a stream of tracked insert-point
// lines and returns the PID each vehicle received.
func insertFleet(base string, f *fleet) (pids []int32, lines []outLine, err error) {
	lines = make([]outLine, len(f.alt))
	for v := range lines {
		lines[v] = outLine{body: insertLine(f.alt[v][0], f.speed), vehicle: v, p: f.alt[v][0], pid: -1, due: time.Now()}
	}
	s, err := openStream(base, make([]int32, len(f.alt)), lines[0])
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i < len(lines); i += 64 {
		if err := s.send(lines[i:min(i+64, len(lines))]...); err != nil {
			s.conn.Close()
			return nil, nil, err
		}
	}
	s.finish()
	if len(s.failed) > 0 || len(s.ackAt) != len(lines) {
		return nil, nil, fmt.Errorf("fleet insert: %d of %d lines acknowledged, failures %v", len(s.ackAt), len(lines), s.failed)
	}
	for v := range lines {
		lines[v].pid = s.pids[v]
	}
	return s.pids, lines, nil
}

// feedResult is what the stream + watch phase measured.
type feedResult struct {
	lines      []outLine // every move sent, with the PID it named
	ticks      []tickRec
	updates    []watchRec
	pacedLines int
	ackMS      []float64       // paced lines: due time → tick line read
	ackAt      []time.Duration // ... and each line's due time into the phase
	lagMS      []float64       // paced ticks: last line's due time → watch update read
	lagAt      []time.Duration // ... and that due time into the phase
	lateMS     []float64       // paced lines: due time → actually sent
	burstLines int
	burstRate  float64 // lines per second to the last ack
	backlog    int     // lines sent but unacknowledged when the paced phase ended
	failures   []string
	invalid    []string
}

// maxLateMS is the generator-honesty limit on the p99 send lateness of the
// open-loop phase: a line sent a whole tick window late lands in the wrong
// tick, and the harness, not the server, has set its latency. Lateness below
// the limit is not hidden either: latencies run from the due time.
const maxLateMS = float64(tickMS)

// runFeed drives the watch and the stream: an open-loop paced phase at
// feedRate lines per second, timed from each line's due time, then a burst
// that sends as fast as acknowledgements free vehicles.
func runFeed(base string, f *fleet, pids []int32, paced, burst time.Duration, walRecords func() (int, error)) (*feedResult, error) {
	res := &feedResult{}
	wt, err := openWatch(base, &server.ExecRequest{Kind: "CONN", Seg: wireSeg(f.watch)}, sampleEach)
	if err != nil {
		return nil, err
	}
	defer wt.close()
	for t0 := time.Now(); wt.n.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Since(t0) > 10*time.Second {
			return nil, errors.New("watch delivered no initial answer within 10s")
		}
	}

	var s *stream
	next := func(i int, due time.Time) (outLine, bool) {
		v, p, prev := f.line(i)
		pid := pids[v]
		if s != nil {
			var ok bool
			if pid, ok = s.pidAfter(v, prev); !ok {
				return outLine{}, false
			}
		}
		return outLine{body: moveLine(pid, p), vehicle: v, p: p, pid: pid, due: due}, true
	}

	// Paced: line i is due at start + i/feedRate, whatever happened before.
	// The sender keeps its OS thread so that sleepUntil's wake-ups are its own.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	interval := time.Second / feedRate
	first, _ := next(0, start)
	if s, err = openStream(base, pids, first); err != nil {
		return nil, err
	}
	res.lateMS = append(res.lateMS, ms(time.Since(start)))
	i, backlogAtMark := 1, -1
	for ; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= paced {
			break
		}
		if backlogAtMark < 0 && due.Sub(start) >= paced*2/3 {
			backlogAtMark = i - s.acked()
		}
		sleepUntil(due)
		l, ok := next(i, due)
		if !ok {
			break
		}
		res.lateMS = append(res.lateMS, ms(time.Since(due)))
		if err := s.send(l); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("send line %d: %v", i, err))
			break
		}
	}
	res.pacedLines = i
	res.backlog = i - s.acked()
	if res.backlog-backlogAtMark > 10*feedRate*tickMS/1000 {
		res.invalid = append(res.invalid, fmt.Sprintf("backlog grew from %d to %d lines over the last third of the paced phase", backlogAtMark, res.backlog))
	}
	if late := percentile(res.lateMS, 0.99); late > maxLateMS {
		res.invalid = append(res.invalid, fmt.Sprintf("generator ran late: p99 %.2f ms > %.1f ms", late, maxLateMS))
	}
	s.pidAfter(0, i-1) // drain, so the burst starts from an idle stream

	// Burst: as fast as acknowledgements allow, up to 64 lines per write.
	burstStart := time.Now()
	for time.Since(burstStart) < burst {
		var batch []outLine
		now := time.Now()
		for len(batch) < 64 {
			_, _, prev := f.line(i)
			if len(batch) > 0 && prev >= s.acked() {
				break // the vehicle's last move is still in flight: send what we have
			}
			l, ok := next(i, now)
			if !ok {
				break
			}
			batch = append(batch, l)
			i++
		}
		if len(batch) == 0 {
			break
		}
		if err := s.send(batch...); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("send burst: %v", err))
			break
		}
	}
	s.pidAfter(0, i-1)
	burstEnd := i
	// Settle: a durable node's recovery time is its WAL tail's length, which
	// after a time-boxed burst is anywhere in the checkpoint cycle. Unmeasured
	// 16-line ticks move it to the middle of the cycle, where a crash at a
	// random moment finds it on average.
	for walRecords != nil {
		if r, err := walRecords(); err != nil {
			return nil, err
		} else if r >= connquery.DefaultCheckpointEvery/2 && r < connquery.DefaultCheckpointEvery/2+64 {
			break
		}
		var batch []outLine
		for now := time.Now(); len(batch) < 16; i++ {
			l, ok := next(i, now)
			if !ok {
				return nil, errors.New("stream ended while settling the WAL")
			}
			batch = append(batch, l)
		}
		if err := s.send(batch...); err != nil {
			return nil, err
		}
		s.pidAfter(0, i-1)
	}
	s.finish()
	// The watch's last update can trail the last tick by one re-execution.
	lastEpoch := uint64(0)
	if len(s.ticks) > 0 {
		lastEpoch = s.ticks[len(s.ticks)-1].epoch
	}
	for t0 := time.Now(); time.Since(t0) < 2*time.Second; time.Sleep(time.Millisecond) {
		wt.mu.Lock()
		done := len(wt.updates) > 0 && wt.updates[len(wt.updates)-1].epoch >= lastEpoch
		wt.mu.Unlock()
		if done {
			break
		}
	}
	wt.close()

	res.lines, res.ticks, res.updates = s.sent, s.ticks, wt.updates
	res.failures = append(res.failures, s.failed...)
	res.failures = append(res.failures, wt.failed...)
	if len(s.ackAt) != len(s.sent) {
		res.failures = append(res.failures, fmt.Sprintf("%d of %d lines acknowledged", len(s.ackAt), len(s.sent)))
	}
	for k := 0; k < res.pacedLines && k < len(s.ackAt); k++ {
		res.ackMS = append(res.ackMS, ms(s.ackAt[k].Sub(s.sent[k].due)))
		res.ackAt = append(res.ackAt, s.sent[k].due.Sub(start))
	}
	// The burst's rate is the median over groups of eight consecutive ticks
	// of lines ÷ time between the acknowledgements bounding the group.
	burstEnd = min(burstEnd, len(s.ackAt))
	res.burstLines = burstEnd - res.pacedLines
	var rates []float64
	var burstTicks []tickRec
	for _, t := range s.ticks {
		if t.lastLine >= res.pacedLines && t.lastLine < burstEnd {
			burstTicks = append(burstTicks, t)
		}
	}
	for k := 8; k < len(burstTicks); k += 8 {
		from, to := burstTicks[k-8].lastLine, burstTicks[k].lastLine
		rates = append(rates, float64(to-from)/s.ackAt[to].Sub(s.ackAt[from]).Seconds())
	}
	if len(rates) > 0 {
		res.burstRate = median(rates)
	} else if res.burstLines > 0 {
		res.burstRate = float64(res.burstLines) / s.ackAt[burstEnd-1].Sub(burstStart).Seconds()
	}
	// Each update is charged to the tick that published the epoch it shows:
	// the first tick whose epoch is not below the update's. A tick's lag is
	// that of the last update charged to it, the one that shows all of the
	// tick the watch will see: a sharded node publishes an epoch per member,
	// and its early updates of a tick would make a second, faster cluster of
	// samples with the median in the gap between the two.
	t, charged := 0, -1
	for _, u := range res.updates[1:] {
		for t < len(res.ticks) && res.ticks[t].epoch < u.epoch {
			t++
		}
		if t == len(res.ticks) || res.ticks[t].lastLine >= res.pacedLines {
			break
		}
		if t == charged {
			res.lagMS[len(res.lagMS)-1] = ms(u.at.Sub(res.ticks[t].lastDue))
			continue
		}
		charged = t
		res.lagMS = append(res.lagMS, ms(u.at.Sub(res.ticks[t].lastDue)))
		res.lagAt = append(res.lagAt, res.ticks[t].lastDue.Sub(start))
	}
	if len(res.ackMS) == 0 || len(res.lagMS) == 0 || res.burstLines == 0 {
		return nil, fmt.Errorf("feed measured nothing: %d acks, %d watch updates, %d burst lines; failures %v",
			len(res.ackMS), len(res.lagMS), res.burstLines, res.failures)
	}
	return res, nil
}

// feedWindow is the length of the windows the paced phase's latencies are
// summarised over: each reported percentile is the median, over the phase's
// consecutive windows, of that percentile within the window. A stall that the
// host, not the server, caused then moves one window, not the run's figure;
// and two seconds is one checkpoint cycle of the durable node at feedRate, so
// every window of fleet_motion holds exactly one checkpoint.
const feedWindow = 2 * time.Second

// windowed returns the median over consecutive feedWindow-long windows of the
// p-quantile of the samples due within each; a last window shorter than half
// a window joins the one before.
func windowed(at []time.Duration, v []float64, p float64) float64 {
	if len(v) == 0 {
		return percentile(v, p)
	}
	n := int((at[len(at)-1] + feedWindow/2) / feedWindow)
	n = max(n, 1)
	groups := make([][]float64, n)
	for i, x := range v {
		w := min(int(at[i]/feedWindow), n-1)
		groups[w] = append(groups[w], x)
	}
	var qs []float64
	for _, g := range groups {
		if len(g) > 0 {
			qs = append(qs, percentile(g, p))
		}
	}
	return median(qs)
}

// sleepUntil blocks the calling thread until t. time.Sleep would do, but an
// idle Go scheduler waits for its next timer in epoll_wait, whose timeout is
// whole milliseconds: every send would be up to 1 ms late, on a 1 ms schedule.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return only makes the send early-checked again by the caller's clock
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sameAnswer compares two /v1/exec bodies as the oracle does: payload, epoch
// and NPE/NOE/|SVG|/reach equal, wall-clock and page-fault fields ignored.
func sameAnswer(a, b []byte) bool {
	na, errA := normalize(a)
	nb, errB := normalize(b)
	return errA == nil && errB == nil && bytes.Equal(na, nb)
}
