package connquery

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"connquery/internal/core"
	"connquery/internal/flatgeom"
)

// This file is the request-based query surface: every query the database
// answers is a first-class Request value executed by one path —
// DB.Exec(ctx, req, opts...) — that handles validation, version resolution
// (AtVersion / AtSnapshot), worker pooling, the answer cache and context
// cancellation uniformly. DB.Watch (watch.go) re-executes a Request against
// every freshly published MVCC version.

// Typed errors returned by Exec and the snapshot machinery. Wrap-aware:
// test with errors.Is.
var (
	// ErrNilRequest is returned by Exec and Watch for a nil Request.
	ErrNilRequest = errors.New("connquery: nil request")
	// ErrSnapshotReleased is returned when a query pins a Snapshot whose
	// Release has already run.
	ErrSnapshotReleased = errors.New("connquery: snapshot already released")
	// ErrForeignSnapshot is returned when a query pins a Snapshot taken from
	// a different DB handle.
	ErrForeignSnapshot = errors.New("connquery: snapshot belongs to a different DB handle")
	// ErrVersionNotPinned is returned by AtVersion when the requested epoch
	// is neither the current version nor kept alive by an unreleased
	// Snapshot of this handle.
	ErrVersionNotPinned = errors.New("connquery: version not pinned")
	// ErrPinnedWatch is returned by Watch when the options pin a fixed
	// version: a watch follows the live version chain by definition.
	ErrPinnedWatch = errors.New("connquery: Watch cannot pin a fixed version")
)

// Request is one executable query. The concrete request types in this
// package (CONNRequest, COkNNRequest, ONNRequest, ...) are the only
// implementations: a Request carries the query's parameters and nothing
// else, so values are serializable by the caller and reusable across Exec,
// Watch and different DB handles. Single-item requests are plain comparable
// structs; the multi-item ones (CONNBatchRequest, TrajectoryRequest, the
// join requests) carry slices and must not be compared with ==.
type Request interface {
	// Kind names the query family ("CONN", "COkNN", ...), for logs and
	// error messages.
	Kind() string

	// validate rejects malformed parameters before any work starts.
	validate() error
	// run executes the request on the prepared execution context. It may
	// panic with core.Aborted when cancellation fires; Exec recovers that.
	run(x *execution) (any, Metrics, error)
}

// TypedRequest is a Request whose answer payload has static type A. Every
// concrete request implements it for exactly one A (CONNRequest for
// *Result, COkNNRequest for *KResult, ...), which lets the generic Run
// helper return statically typed answers without assertions at call sites.
type TypedRequest[A any] interface {
	Request
	// answer is a phantom method: it is never called, it only pins A so
	// type inference can recover the payload type from the request type.
	answer() A
}

// Run executes req on db and returns the answer payload with its static
// type, inferred from the request: Run(ctx, db, CONNRequest{Seg: q})
// returns (*Result, Metrics, error). It is Exec plus the type assertion.
func Run[A any](ctx context.Context, db *DB, req TypedRequest[A], opts ...QueryOption) (A, Metrics, error) {
	ans, err := db.Exec(ctx, req, opts...)
	if err != nil {
		var zero A
		return zero, Metrics{}, err
	}
	return ans.value.(A), ans.metrics, nil
}

// ---------------------------------------------------------------------------
// Query options

// QueryOption configures one Exec or Watch call. Options compose; later
// options win on conflict.
type QueryOption func(*execOptions)

type execOptions struct {
	snap    *Snapshot
	bySnap  bool
	ssnap   *ShardedSnapshot
	bySSnap bool
	epoch   uint64
	byEpoch bool
	workers int
	hasWork bool
	noCache bool
}

// pinned reports whether the options pin a fixed version.
func (o *execOptions) pinned() bool { return o.bySnap || o.byEpoch || o.bySSnap }

// AtSnapshot pins the query to the version held by an unreleased Snapshot
// of the same DB handle, regardless of how far the live version has
// advanced since. A nil Snapshot is rejected at Exec time (it is NOT
// silently the live version).
func AtSnapshot(s *Snapshot) QueryOption {
	return func(o *execOptions) {
		o.snap = s
		o.bySnap = true
		o.byEpoch = false
		o.ssnap, o.bySSnap = nil, false
	}
}

// AtVersion pins the query to the MVCC version with the given epoch. The
// epoch must be alive: either the current version or one kept pinned by an
// unreleased Snapshot of this handle — otherwise Exec returns
// ErrVersionNotPinned.
func AtVersion(epoch uint64) QueryOption {
	return func(o *execOptions) {
		o.epoch = epoch
		o.byEpoch = true
		o.snap, o.bySnap = nil, false
		o.ssnap, o.bySSnap = nil, false
	}
}

// WithNoCache bypasses the answer cache for this call: the request executes
// on the engine unconditionally and its answer is not inserted. Use it when
// a fresh cost profile (Metrics) matters — cache hits replay the metrics of
// the execution that populated the entry — or to benchmark the uncached
// path.
func WithNoCache() QueryOption {
	return func(o *execOptions) { o.noCache = true }
}

// WithWorkers runs a multi-item request (CONNBatchRequest,
// EDistanceJoinRequest, DistanceSemiJoinRequest, TrajectoryRequest) on a
// bounded pool of n workers, each with its own engine view — shared
// immutable indexes, private page counters and private warm query state.
// For single-item requests it instead engages intra-query parallelism: the
// candidate sight-line batches of obstacle insertion and CPLC's
// per-candidate visible-region computation fan across a pool of n lanes
// inside the one execution, with the answer — payload and NPE/NOE/|SVG|
// metrics — bit-identical to the sequential path. n <= 0
// selects GOMAXPROCS, so on a single-CPU machine the option resolves to the
// sequential path; absent the option, execution is always sequential.
func WithWorkers(n int) QueryOption {
	return func(o *execOptions) { o.workers = n; o.hasWork = true }
}

// ---------------------------------------------------------------------------
// Answers

// Answer is the outcome of one executed Request: the payload, the metrics
// the paper reports for every query, and the MVCC epoch the query ran
// against. Payload accessors return the zero value when the answer holds a
// different kind; Value gives the untyped payload, and the generic Run
// helper returns it statically typed.
type Answer struct {
	req        Request
	epoch      uint64
	value      any
	metrics    Metrics
	items      []Metrics
	cached     bool
	validUntil time.Time
}

// Request returns the request this answer was produced for.
func (a *Answer) Request() Request { return a.req }

// Epoch returns the snapshot epoch the query executed against.
func (a *Answer) Epoch() uint64 { return a.epoch }

// ValidUntil returns the answer's validity horizon: the earliest wall-clock
// instant at which any speed-declared object (DB.Apply with Mutation.Speed)
// could first reach the answer's impact region. Until then, ticks made
// entirely of speed-compliant moves provably leave the answer bit-identical,
// and Watch subscriptions skip re-execution (motion.go). The zero time means
// no horizon: nothing is tracked, a tracked object is too close, or the
// answer's region is unbounded. The horizon is advisory for plain mutations —
// any non-compliant commit re-arms watchers regardless of it.
func (a *Answer) ValidUntil() time.Time { return a.validUntil }

// Cached reports whether the answer was served from the answer cache
// without executing the engine. A cached answer's payload is bit-identical
// to what a fresh execution at Epoch would produce; its Metrics (and
// ItemMetrics) are those of the execution that populated the entry, since a
// hit performs no engine work of its own.
func (a *Answer) Cached() bool { return a.cached }

// Metrics returns the query's cost profile. For multi-item requests it is
// the aggregate (summed faults/NPE/NOE, peak SVG, wall-clock CPU).
func (a *Answer) Metrics() Metrics { return a.metrics }

// Value returns the untyped answer payload.
func (a *Answer) Value() any { return a.value }

// Result returns the CONN-family payload (CONNRequest, CNNRequest), or nil
// for other requests.
func (a *Answer) Result() *Result { r, _ := a.value.(*Result); return r }

// KResult returns the COkNN payload, or nil.
func (a *Answer) KResult() *KResult { r, _ := a.value.(*KResult); return r }

// Neighbors returns the payload of ONNRequest, RangeRequest and
// VisibleKNNRequest, or nil.
func (a *Answer) Neighbors() []Neighbor { r, _ := a.value.([]Neighbor); return r }

// Pairs returns the payload of EDistanceJoinRequest and
// DistanceSemiJoinRequest, or nil.
func (a *Answer) Pairs() []JoinPair { r, _ := a.value.([]JoinPair); return r }

// Pair returns the ClosestPairRequest payload.
func (a *Answer) Pair() JoinPair { r, _ := a.value.(JoinPair); return r }

// Trajectory returns the TrajectoryRequest payload, or nil.
func (a *Answer) Trajectory() *TrajectoryResult { r, _ := a.value.(*TrajectoryResult); return r }

// Results returns the CONNBatchRequest payload, or nil.
func (a *Answer) Results() []*Result { r, _ := a.value.([]*Result); return r }

// Distance returns the DistanceRequest payload (+Inf when unreachable).
func (a *Answer) Distance() float64 { r, _ := a.value.(float64); return r }

// ItemMetrics returns per-item metrics for multi-item requests executed on
// the pooled path: one entry per batch segment (CONNBatchRequest, any
// worker count), per non-degenerate leg (TrajectoryRequest) or per query
// point (the join requests) when WithWorkers engaged the pool. Nil for
// single-item requests and for multi-item requests run sequentially.
func (a *Answer) ItemMetrics() []Metrics { return a.items }

// ---------------------------------------------------------------------------
// Execution

// execution carries everything one Exec call needs: the pinned version, the
// prepared engine, and the resolved options.
type execution struct {
	ctx    context.Context
	db     *DB
	v      *version
	eng    *core.Engine
	cancel func() error
	xo     *execOptions
	items  []Metrics
}

// Exec executes a Request against one consistent MVCC snapshot and returns
// its Answer. The snapshot is the current version unless AtVersion or
// AtSnapshot pins another pinned-alive one. ctx cancellation and deadline
// are polled inside the query hot loops (the Dijkstra settle loop, IOR
// growth, the CPLC candidate scan), so even a single stuck query aborts
// promptly with ctx.Err().
//
// Repeats of a request at an unchanged (or promotion-covered) epoch are
// served from the answer cache without executing the engine; see
// WithAnswerCache for the contract and WithNoCache for per-call bypass.
// Answer payloads — cached or not — are shared, immutable values: treat
// them as read-only.
func (db *DB) Exec(ctx context.Context, req Request, opts ...QueryOption) (*Answer, error) {
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
	v, err := db.resolveVersion(&xo)
	if err != nil {
		return nil, err
	}
	return db.execAt(ctx, req, v, &xo)
}

// resolveVersion picks the MVCC version the query runs against.
func (db *DB) resolveVersion(xo *execOptions) (*version, error) {
	switch {
	case xo.bySnap:
		return xo.snap.pinned(db)
	case xo.bySSnap:
		// A ShardedSnapshot pins shard versions of a ShardedDB, never of a
		// standalone DB handle.
		return nil, ErrForeignSnapshot
	case xo.byEpoch:
		return db.versionAt(xo.epoch)
	default:
		return db.current(), nil
	}
}

// execAt runs req against the fixed version v. Watch calls it directly with
// each freshly published version.
func (db *DB) execAt(ctx context.Context, req Request, v *version, xo *execOptions) (*Answer, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	// WithWorkers on a single-item request engages the intra-query pool via
	// the engine options; multi-item requests run their own inter-query pool
	// instead, and their worker engines leave it unset (workerEngine).
	var opts core.Options
	if xo.hasWork {
		if n := xo.workers; n > 0 {
			opts.Workers = n
		} else {
			opts.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Consult the answer cache: a hit at this epoch — original or promoted
	// across mutations whose impact regions missed it — skips the engine
	// entirely and replays the stored payload and metrics.
	var fp string
	useCache := db.cache != nil && !xo.noCache
	if useCache {
		var ok bool
		if fp, ok = requestFingerprint(req, xo.workers, xo.hasWork); !ok {
			useCache = false
		} else if rec, hit := db.cache.Get(fp, v.epoch); hit {
			ca := rec.(*cachedAnswer)
			ans := &Answer{req: req, epoch: v.epoch, value: ca.value, metrics: ca.metrics, items: ca.items, cached: true}
			db.stampHorizon(ans)
			return ans, nil
		}
	}
	var cancel func() error
	if ctx.Done() != nil {
		cancel = ctx.Err
	}
	// Execution planner: admit this request into its (epoch, quantized
	// region) group. With a concurrent partner on the same group the call
	// receives a shared region-scoped certificate table to run against;
	// alone (or ungroupable) it gets nil and runs the private path. Either
	// way the answer is bit-identical — the table only changes how
	// sight-line verdicts are computed, never what they are.
	var shared *flatgeom.CornerTable
	if tk := db.admitPlanner(req, v); tk != nil {
		defer tk.Done()
		shared = tk.Table(ctx, plannerBuild(v))
	}
	// The fast path executes on the version's own engine. A per-call engine
	// view — same trees, same page counters, so accounting is unchanged — is
	// built only when this call needs intra-query lanes, a cancellation hook
	// or a planner-shared table.
	eng := v.eng
	if cancel != nil || opts.Workers > 1 || shared != nil {
		eng = &core.Engine{
			Data:        v.eng.Data,
			Obst:        v.eng.Obst,
			Obstacles:   v.eng.Obstacles,
			Kernel:      v.eng.Kernel,
			Shared:      shared,
			Opts:        opts,
			Epoch:       v.epoch,
			States:      v.eng.States,
			DataCounter: v.eng.DataCounter,
			ObstCounter: v.eng.ObstCounter,
			Cancel:      cancel,
		}
	}
	x := &execution{ctx: ctx, db: db, v: v, eng: eng, cancel: cancel, xo: xo}
	value, m, err := x.guarded(req)
	if err != nil {
		return nil, err
	}
	if useCache {
		db.cache.Put(fp, v.epoch, &cachedAnswer{value: value, metrics: m, items: x.items},
			widenRegion(impactRegion(req, value), req, m.Reach), answerFootprint(value, x.items))
	}
	ans := &Answer{req: req, epoch: v.epoch, value: value, metrics: m, items: x.items}
	db.stampHorizon(ans)
	return ans, nil
}

// guarded invokes req.run, translating a cancellation panic (core.Aborted)
// into the error it carries. Any other panic propagates.
func (x *execution) guarded(req Request) (value any, m Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(core.Aborted)
			if !ok {
				panic(r)
			}
			value, m, err = nil, Metrics{}, a.Err
		}
	}()
	return req.run(x)
}

// workerEngine builds one batch worker's private engine view: shared
// immutable indexes, fresh page counters and a private query-state pool,
// plus this call's cancellation hook. It runs without intra-query lanes:
// the pool parallelizes across items already.
func (x *execution) workerEngine() *core.Engine {
	eng := viewEngine(x.v, nil)
	eng.Cancel = x.cancel
	// Workers of a multi-item request share the call's planner table: the
	// per-item executions are exactly the members the group was formed for.
	eng.Shared = x.eng.Shared
	return eng
}

// workers resolves WithWorkers for a multi-item request. seqDefault is the
// worker count used when the option is absent (1 = sequential legacy
// behavior; 0 = GOMAXPROCS).
func (x *execution) workers(seqDefault int) int {
	n := seqDefault
	if x.xo.hasWork {
		n = x.xo.workers
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// pool runs n independent items on a bounded pool of worker engine views,
// handing items out by an atomic cursor so workers stay busy regardless of
// per-item cost skew. A cancellation abort in any worker is captured and
// returned after the pool drains (sibling workers observe the same expired
// context through their own hooks and stop promptly).
func (x *execution) pool(n, workers int, item func(eng *core.Engine, i int)) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		abortMu  sync.Mutex
		abortErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					a, ok := r.(core.Aborted)
					if !ok {
						panic(r)
					}
					abortMu.Lock()
					if abortErr == nil {
						abortErr = a.Err
					}
					abortMu.Unlock()
				}
			}()
			eng := x.workerEngine()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				item(eng, i)
			}
		}()
	}
	wg.Wait()
	return abortErr
}

// ---------------------------------------------------------------------------
// Concrete requests

func validateSegment(q Segment) error {
	if q.Degenerate() {
		return errors.New("connquery: query segment is degenerate (use ONNRequest for point queries)")
	}
	return nil
}

func validateK(kind string, k int) error {
	if k < 1 {
		return fmt.Errorf("connquery: %s: k must be >= 1, got %d", kind, k)
	}
	return nil
}

// CONNRequest is a continuous obstructed nearest neighbor query over the
// segment Seg (the paper's Algorithm 4). Answer payload: *Result.
type CONNRequest struct{ Seg Segment }

// Kind implements Request.
func (CONNRequest) Kind() string      { return "CONN" }
func (CONNRequest) answer() *Result   { return nil }
func (r CONNRequest) validate() error { return validateSegment(r.Seg) }
func (r CONNRequest) run(x *execution) (any, Metrics, error) {
	res, m := x.eng.CONN(r.Seg)
	return res, m, nil
}

// COkNNRequest is a continuous obstructed k-nearest-neighbor query (§4.5).
// Answer payload: *KResult.
type COkNNRequest struct {
	Seg Segment
	K   int
}

// Kind implements Request.
func (COkNNRequest) Kind() string     { return "COkNN" }
func (COkNNRequest) answer() *KResult { return nil }
func (r COkNNRequest) validate() error {
	if err := validateSegment(r.Seg); err != nil {
		return err
	}
	return validateK("COkNN", r.K)
}
func (r COkNNRequest) run(x *execution) (any, Metrics, error) {
	res, m := x.eng.COkNN(r.Seg, r.K)
	return res, m, nil
}

// ONNRequest is a snapshot obstructed k-nearest-neighbor query at point P.
// Answer payload: []Neighbor.
type ONNRequest struct {
	P Point
	K int
}

// Kind implements Request.
func (ONNRequest) Kind() string       { return "ONN" }
func (ONNRequest) answer() []Neighbor { return nil }
func (r ONNRequest) validate() error  { return validateK("ONN", r.K) }
func (r ONNRequest) run(x *execution) (any, Metrics, error) {
	nbrs, m := x.eng.ONN(r.P, r.K)
	return nbrs, m, nil
}

// CNNRequest is the classical Euclidean continuous nearest neighbor query,
// ignoring obstacles (the Figure 1 baseline). Answer payload: *Result.
type CNNRequest struct{ Seg Segment }

// Kind implements Request.
func (CNNRequest) Kind() string      { return "CNN" }
func (CNNRequest) answer() *Result   { return nil }
func (r CNNRequest) validate() error { return validateSegment(r.Seg) }
func (r CNNRequest) run(x *execution) (any, Metrics, error) {
	res, m := x.eng.CNN(r.Seg)
	return res, m, nil
}

// RangeRequest is an obstructed range query: every data point whose
// obstructed distance to Center is at most Radius, sorted ascending (Zhang
// et al., EDBT 2004). Answer payload: []Neighbor.
type RangeRequest struct {
	Center Point
	Radius float64
}

// Kind implements Request.
func (RangeRequest) Kind() string       { return "ObstructedRange" }
func (RangeRequest) answer() []Neighbor { return nil }
func (r RangeRequest) validate() error {
	if r.Radius < 0 {
		return fmt.Errorf("connquery: negative radius %v", r.Radius)
	}
	return nil
}
func (r RangeRequest) run(x *execution) (any, Metrics, error) {
	nbrs, m := x.eng.ObstructedRange(r.Center, r.Radius)
	return nbrs, m, nil
}

// VisibleKNNRequest is a visible k-nearest-neighbor query: the k
// Euclidean-nearest data points visible from P, with obstacles occluding
// rather than detouring (Nutanong et al., DASFAA 2007). Answer payload:
// []Neighbor.
type VisibleKNNRequest struct {
	P Point
	K int
}

// Kind implements Request.
func (VisibleKNNRequest) Kind() string       { return "VisibleKNN" }
func (VisibleKNNRequest) answer() []Neighbor { return nil }
func (r VisibleKNNRequest) validate() error  { return validateK("VisibleKNN", r.K) }
func (r VisibleKNNRequest) run(x *execution) (any, Metrics, error) {
	nbrs, m := x.eng.VisibleKNN(r.P, r.K)
	return nbrs, m, nil
}

// DistanceRequest computes the exact obstructed distance between two free
// points (+Inf when no path exists). Answer payload: float64.
type DistanceRequest struct{ A, B Point }

// Kind implements Request.
func (DistanceRequest) Kind() string    { return "ObstructedDist" }
func (DistanceRequest) answer() float64 { return 0 }
func (DistanceRequest) validate() error { return nil }
func (r DistanceRequest) run(x *execution) (any, Metrics, error) {
	start := time.Now()
	d, reach := x.eng.ObstructedDistance(r.A, r.B)
	return d, Metrics{CPU: time.Since(start), Reach: reach}, nil
}

// TrajectoryRequest is a CONN query over a polyline trajectory (the paper's
// §6 extension): the obstructed NN of every point on every leg. Degenerate
// legs are skipped. With WithWorkers, legs run concurrently on the pooled
// path. Answer payload: *TrajectoryResult.
type TrajectoryRequest struct{ Waypoints []Point }

// Kind implements Request.
func (TrajectoryRequest) Kind() string              { return "TrajectoryCONN" }
func (TrajectoryRequest) answer() *TrajectoryResult { return nil }
func (r TrajectoryRequest) validate() error {
	if len(r.Waypoints) < 2 {
		return errors.New("connquery: trajectory needs at least two waypoints")
	}
	return nil
}
func (r TrajectoryRequest) run(x *execution) (any, Metrics, error) {
	workers := x.workers(1)
	if workers <= 1 {
		res, m := x.eng.TrajectoryCONN(r.Waypoints)
		if len(res.Legs) == 0 {
			return nil, Metrics{}, errors.New("connquery: all trajectory legs are degenerate")
		}
		return res, m, nil
	}
	var legs []Segment
	for i := 1; i < len(r.Waypoints); i++ {
		leg := Seg(r.Waypoints[i-1], r.Waypoints[i])
		if !leg.Degenerate() {
			legs = append(legs, leg)
		}
	}
	if len(legs) == 0 {
		return nil, Metrics{}, errors.New("connquery: all trajectory legs are degenerate")
	}
	start := time.Now()
	results := make([]*Result, len(legs))
	metrics := make([]Metrics, len(legs))
	err := x.pool(len(legs), workers, func(eng *core.Engine, i int) {
		results[i], metrics[i] = eng.CONN(legs[i])
	})
	if err != nil {
		return nil, Metrics{}, err
	}
	res := &TrajectoryResult{Waypoints: append([]Point(nil), r.Waypoints...), Legs: results}
	x.items = metrics // per-leg metrics, one entry per non-degenerate leg
	agg := aggregateItems(metrics, true)
	agg.CPU = time.Since(start)
	return res, agg, nil
}

// CONNBatchRequest answers many CONN queries as one request. Without
// WithWorkers the pool size defaults to GOMAXPROCS; every worker owns an
// engine view and warm query state reused across the queries it processes,
// and the whole batch runs against one pinned snapshot. Answer payload:
// []*Result (per-query metrics via Answer.ItemMetrics).
type CONNBatchRequest struct{ Segs []Segment }

// Kind implements Request.
func (CONNBatchRequest) Kind() string      { return "CONNBatch" }
func (CONNBatchRequest) answer() []*Result { return nil }
func (r CONNBatchRequest) validate() error {
	for i, q := range r.Segs {
		if err := validateSegment(q); err != nil {
			return fmt.Errorf("connquery: batch query %d: %w", i, err)
		}
	}
	return nil
}
func (r CONNBatchRequest) run(x *execution) (any, Metrics, error) {
	start := time.Now()
	results := make([]*Result, len(r.Segs))
	items := make([]Metrics, len(r.Segs))
	err := x.pool(len(r.Segs), x.workers(0), func(eng *core.Engine, i int) {
		results[i], items[i] = eng.CONN(r.Segs[i])
	})
	if err != nil {
		return nil, Metrics{}, err
	}
	x.items = items
	agg := aggregateItems(items, true)
	agg.CPU = time.Since(start)
	return results, agg, nil
}

// EDistanceJoinRequest is the obstructed e-distance join: every
// (query point, data point) pair with obstructed distance at most E (Zhang
// et al., EDBT 2004). With WithWorkers the per-query-point range scans run
// concurrently. Answer payload: []JoinPair.
type EDistanceJoinRequest struct {
	Queries []Point
	E       float64
}

// Kind implements Request.
func (EDistanceJoinRequest) Kind() string       { return "EDistanceJoin" }
func (EDistanceJoinRequest) answer() []JoinPair { return nil }
func (r EDistanceJoinRequest) validate() error {
	if r.E < 0 {
		return fmt.Errorf("connquery: negative join distance %v", r.E)
	}
	return nil
}
func (r EDistanceJoinRequest) run(x *execution) (any, Metrics, error) {
	workers := x.workers(1)
	if workers <= 1 {
		pairs, m := x.eng.EDistanceJoin(r.Queries, r.E)
		return pairs, m, nil
	}
	start := time.Now()
	perQ := make([][]Neighbor, len(r.Queries))
	metrics := make([]Metrics, len(r.Queries))
	err := x.pool(len(r.Queries), workers, func(eng *core.Engine, i int) {
		perQ[i], metrics[i] = eng.ObstructedRange(r.Queries[i], r.E)
	})
	if err != nil {
		return nil, Metrics{}, err
	}
	var out []JoinPair
	for qi, nbrs := range perQ {
		for _, n := range nbrs {
			out = append(out, JoinPair{QIdx: qi, PID: n.PID, P: n.P, Dist: n.Dist})
		}
	}
	x.items = metrics // per-query-point metrics, in input order
	agg := aggregateItems(metrics, false)
	agg.CPU = time.Since(start)
	return out, agg, nil
}

// DistanceSemiJoinRequest returns, for each query point, its obstructed
// nearest data point, sorted ascending by distance. With WithWorkers the
// per-query-point ONN probes run concurrently. Answer payload: []JoinPair.
type DistanceSemiJoinRequest struct{ Queries []Point }

// Kind implements Request.
func (DistanceSemiJoinRequest) Kind() string       { return "DistanceSemiJoin" }
func (DistanceSemiJoinRequest) answer() []JoinPair { return nil }
func (DistanceSemiJoinRequest) validate() error    { return nil }
func (r DistanceSemiJoinRequest) run(x *execution) (any, Metrics, error) {
	workers := x.workers(1)
	if workers <= 1 {
		pairs, m := x.eng.DistanceSemiJoin(r.Queries)
		return pairs, m, nil
	}
	start := time.Now()
	out := make([]JoinPair, len(r.Queries))
	metrics := make([]Metrics, len(r.Queries))
	err := x.pool(len(r.Queries), workers, func(eng *core.Engine, i int) {
		nbrs, m := eng.ONN(r.Queries[i], 1)
		metrics[i] = m
		if len(nbrs) > 0 {
			out[i] = JoinPair{QIdx: i, PID: nbrs[0].PID, P: nbrs[0].P, Dist: nbrs[0].Dist}
		} else {
			out[i] = JoinPair{QIdx: i, PID: NoOwner, Dist: inf()}
		}
	})
	if err != nil {
		return nil, Metrics{}, err
	}
	sortPairsByDist(out)
	x.items = metrics // per-query-point metrics, in input order
	agg := aggregateItems(metrics, false)
	agg.CPU = time.Since(start)
	return out, agg, nil
}

// ClosestPairRequest returns the (query point, data point) pair with the
// smallest obstructed distance; with no query points the pair has
// QIdx == -1 and infinite distance. Answer payload: JoinPair.
type ClosestPairRequest struct{ Queries []Point }

// Kind implements Request.
func (ClosestPairRequest) Kind() string     { return "ClosestPair" }
func (ClosestPairRequest) answer() JoinPair { return JoinPair{} }
func (ClosestPairRequest) validate() error  { return nil }
func (r ClosestPairRequest) run(x *execution) (any, Metrics, error) {
	pair, m := x.eng.ClosestPair(r.Queries)
	return pair, m, nil
}

func inf() float64 { return math.Inf(1) }

// aggregateItems merges per-item metrics into one multi-item answer
// profile: summed NPE/NOE (and, when the per-item runs carry page
// accounting, faults), peak SVG. The caller stamps CPU with the op's wall
// clock. withFaults mirrors the sequential engine paths: CONN-per-item
// requests report faults, the join family does not.
func aggregateItems(items []Metrics, withFaults bool) Metrics {
	var agg Metrics
	for _, m := range items {
		if withFaults {
			agg.FaultsData += m.FaultsData
			agg.FaultsObst += m.FaultsObst
		}
		agg.NPE += m.NPE
		agg.NOE += m.NOE
		if m.SVG > agg.SVG {
			agg.SVG = m.SVG
		}
		if m.Reach > agg.Reach {
			agg.Reach = m.Reach
		}
	}
	return agg
}

func sortPairsByDist(ps []JoinPair) {
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Dist < ps[j].Dist })
}
