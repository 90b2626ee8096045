// Package connquery is a spatial query library for continuous obstructed
// nearest neighbor (CONN) search, reproducing Gao & Zheng, "Continuous
// Obstructed Nearest Neighbor Queries in Spatial Databases" (SIGMOD 2009).
//
// Given a set of data points P, a set of rectangular obstacles O, and a
// query line segment q, a CONN query reports, for every position along q,
// which data point is nearest by obstructed distance — the length of the
// shortest path that does not cross any obstacle's interior — together with
// the exact split positions where the answer changes. COkNN generalizes the
// answer to the k nearest points per position.
//
// # Requests and Exec
//
// Every query is a first-class request value executed through one path:
//
//	db, err := connquery.Open(points, obstacles)
//	if err != nil { ... }
//	res, metrics, err := connquery.Run(ctx, db, connquery.CONNRequest{Seg: connquery.Seg(start, end)})
//	if err != nil { ... }
//	for _, tup := range res.Tuples {
//	    fmt.Println(tup.P, "owns", res.Q.SubSegment(tup.Span.Lo, tup.Span.Hi))
//	}
//	fmt.Println("cost:", metrics.TotalCost())
//
// Run is the statically typed helper over DB.Exec, which returns an Answer
// carrying the payload, the query Metrics and the MVCC epoch it ran
// against. The request family covers the paper and its related work:
// CONNRequest, COkNNRequest, ONNRequest, CNNRequest, RangeRequest,
// TrajectoryRequest, CONNBatchRequest, EDistanceJoinRequest,
// DistanceSemiJoinRequest, ClosestPairRequest, VisibleKNNRequest and
// DistanceRequest.
//
// Per-call QueryOptions subsume what used to require dedicated methods:
// AtVersion/AtSnapshot pin a query to an explicitly pinned MVCC version
// (DB.Snapshot returns the pin handle), WithWorkers runs a multi-item
// request on a bounded worker pool, and WithNoCache bypasses the answer
// cache. The ctx passed to Exec is polled inside the
// query hot loops (the Dijkstra settle loop, incremental obstacle
// retrieval, the control-point scan), so cancellation and deadlines abort
// even a single stuck query promptly with ctx.Err().
//
// # Watching continuous queries under updates
//
// The database is mutable with snapshot isolation: mutations publish
// immutable copy-on-write MVCC versions while queries read one consistent
// snapshot end to end. DB.Watch subscribes a request to that version chain:
// every committed mutation re-executes the request against the freshly
// published version (coalescing bursts) and delivers the revised Answer
// with its epoch and the delta against the previous answer — the live
// variant of the paper's continuous queries.
//
// # Cost model
//
// The library indexes P and O with two R*-trees of 4 KB pages and reports
// the paper's cost metrics with every query: page faults (unbuffered, one
// fault per node access), CPU time, points and obstacles evaluated, and
// visibility-graph size. The paper's cost-model experiments — the LRU
// buffer of Figure 12, the single-tree variant of Figure 13 and the lemma
// ablations — are not options of this package; `connbench -fig` runs them
// on the engine directly.
package connquery

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"connquery/internal/anscache"
	"connquery/internal/core"
	"connquery/internal/flatgeom"
	"connquery/internal/geom"
	"connquery/internal/planner"
	"connquery/internal/rtree"
	"connquery/internal/stats"
)

// Re-exported geometry types. PIDs in results index the point slice given
// to Open.
type (
	// Point is a 2D location.
	Point = geom.Point
	// Rect is a closed axis-aligned rectangle (the obstacle shape).
	Rect = geom.Rect
	// Segment is a query line segment.
	Segment = geom.Segment
	// Span is a parametric interval [Lo, Hi] ⊆ [0, 1] along a query segment.
	Span = geom.Span
)

// Result types re-exported from the query core.
type (
	// Result is a CONN answer.
	Result = core.Result
	// Tuple is one ⟨point, interval⟩ element of a CONN answer.
	Tuple = core.Tuple
	// KResult is a COkNN answer.
	KResult = core.KResult
	// KTuple is one ⟨point set, interval⟩ element of a COkNN answer.
	KTuple = core.KTuple
	// Neighbor is one answer of a point ONN query.
	Neighbor = core.Neighbor
	// Owner is one member of a COkNN answer set.
	Owner = core.Owner
	// Metrics reports one query's cost profile.
	Metrics = stats.QueryMetrics
	// JoinPair is one result of an obstructed join query.
	JoinPair = core.JoinPair
	// TrajectoryResult is a per-leg CONN answer over a polyline trajectory.
	TrajectoryResult = core.TrajectoryResult
)

// NoOwner marks intervals with no reachable data point.
const NoOwner = core.NoOwner

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R builds a Rect from min/max coordinates.
func R(minX, minY, maxX, maxY float64) Rect { return geom.R(minX, minY, maxX, maxY) }

// Seg builds a Segment.
func Seg(a, b Point) Segment { return geom.Seg(a, b) }

// version is one immutable MVCC snapshot of the database: point and
// obstacle storage, the tombstone sets, and an engine over this version's
// R-tree roots. Once published through DB.cur a version is never modified;
// mutations build a successor (sharing all untouched structure) and swap the
// pointer. Every query loads the pointer exactly once, so it observes one
// consistent version end to end.
type version struct {
	epoch      uint64
	points     []Point // PID-indexed; append-only along a version chain
	obstacles  []Rect  // OID-indexed; append-only along a version chain
	deletedPts map[int32]bool
	deletedObs map[int32]bool
	eng        *core.Engine
}

// DB answers CONN-family queries over a point set and an obstacle set and
// supports mutations with snapshot isolation (multi-version concurrency
// control).
//
// Concurrency contract:
//
//   - Mutations (InsertPoint, DeletePoint, InsertObstacle, DeleteObstacle)
//     serialize on an internal lock and may run concurrently with any
//     queries on this DB or its clones: each mutation publishes a new
//     immutable version via an atomic pointer swap, and every query reads
//     the version that was current when it started.
//   - Queries on one DB handle may run concurrently with each other and
//     with the writer. The page-fault counters are shared per handle, so
//     concurrent queries contaminate each other's per-query fault metrics
//     (answers and the NPE/NOE/SVG metrics are unaffected) — use one Clone
//     per goroutine, or a multi-item request on two or more workers (each
//     worker's engine view counts its own faults), for clean fault
//     accounting.
//   - Clone pins the version current at call time: later mutations of the
//     parent are invisible to the clone, and the clone may itself be
//     mutated, forking an independent history. DB.Snapshot pins a version
//     without creating a new handle, for AtSnapshot/AtVersion queries.
type DB struct {
	cur atomic.Pointer[version]

	// Writer state. mu serializes mutations on this handle; readers never
	// take it. ownPts/ownObs record whether this handle exclusively owns the
	// spare capacity of the latest version's storage slices (false on
	// clones, which share the parent's arrays until their first append).
	mu     sync.Mutex
	ownPts bool
	ownObs bool

	states *core.StatePool
	cfg    config

	// cache is the answer cache (nil when disabled): Exec keys executions by
	// canonical request fingerprint and epoch, mutations invalidate only the
	// entries whose impact region they touch (promoting the rest to the new
	// epoch), and Watch serves promoted answers without re-executing.
	cache *anscache.Cache

	// planner is the shared-subcomputation execution planner (nil when
	// disabled via WithNoPlanner): Exec admits each cache-missing request
	// into an (epoch, quantized region) group, and groups with concurrent
	// members share one region-scoped sight-line certificate table.
	planner *planner.Planner

	// pins holds the versions kept alive by unreleased Snapshot handles.
	pins pinSet

	// watch holds the live Watch subscriptions, woken per publish when the
	// commit's change box hits their answer's impact region.
	watch watchSet

	// motion is the tracked-object registry behind validity horizons
	// (motion.go): declared-speed objects with their last known position.
	// lastUnbounded is the latest epoch whose commit was NOT a
	// motion-bounded tick; a stamped ValidUntil horizon covers an epoch
	// range only while lastUnbounded stays at or below its base epoch.
	motion        motionTable
	lastUnbounded atomic.Uint64

	// dur is the durable attachment (nil for in-memory handles): the WAL
	// writer every mutation logs to before publishing, the checkpoint
	// cadence, and the latched fail-stop error. Guarded by mu.
	dur *durableState
}

// current returns the snapshot a query should run against.
func (db *DB) current() *version { return db.cur.Load() }

// Open builds a DB over the given points and obstacles. Points may lie on
// obstacle boundaries but not strictly inside; violations are reported as an
// error. Obstacle rectangles must be well-formed with strictly positive
// width and height (degenerate rectangles have no blocking interior and
// their coincident edges break occlusion assumptions; InsertObstacle
// enforces the same rule).
func Open(points []Point, obstacles []Rect, opts ...Option) (*DB, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if len(points) == 0 {
		return nil, errors.New("connquery: no data points")
	}
	for i, p := range points {
		if !validPoint(p) {
			return nil, fmt.Errorf("connquery: point %d has a non-finite coordinate: %v", i, p)
		}
	}
	for i, o := range obstacles {
		if !validRect(o) {
			return nil, fmt.Errorf("connquery: obstacle %d is malformed: %v (must be finite with positive width and height)", i, o)
		}
	}
	v := &version{
		epoch:     1,
		points:    append([]Point(nil), points...),
		obstacles: append([]Rect(nil), obstacles...),
	}
	db := newDB(v, cfg)
	if err := v.checkPlacement(); err != nil {
		return nil, err
	}
	return db, nil
}

// checkPlacement rejects a live point lying strictly inside a live
// obstacle, using the version's freshly built obstacle index.
func (v *version) checkPlacement() error {
	for i, p := range v.points {
		if v.deletedPts[int32(i)] {
			continue
		}
		for _, o := range v.obstaclesNear(p) {
			if o.ContainsOpen(p) {
				return fmt.Errorf("connquery: point %d (%v) lies strictly inside obstacle %v", i, p, o)
			}
		}
	}
	return nil
}

// newDB wraps v in a fresh handle: the R-trees bulk-load v's live objects
// (deleted ones keep their array slots, so the ID space is preserved, but
// are not indexed), the flat-geometry kernel is built over the full
// obstacle array, and the answer cache and planner start empty.
func newDB(v *version, cfg config) *DB {
	db := &DB{
		cfg:    cfg,
		states: core.NewStatePool(),
		ownPts: true,
		ownObs: true,
		cache:  anscache.New(cfg.cacheBytes),
	}
	if !cfg.noPlanner {
		db.planner = planner.New(plannerMaxGroups)
	}
	var pointItems, obstItems []rtree.Item
	for i, p := range v.points {
		if !v.deletedPts[int32(i)] {
			pointItems = append(pointItems, rtree.PointItem(int32(i), p))
		}
	}
	for i, o := range v.obstacles {
		if !v.deletedObs[int32(i)] {
			obstItems = append(obstItems, rtree.ObstacleItem(int32(i), o))
		}
	}
	data, obst := rtree.New(rtree.Options{}), rtree.New(rtree.Options{})
	data.BulkLoad(pointItems)
	obst.BulkLoad(obstItems)
	v.eng = newEngine(v, data, obst, flatgeom.NewKernel(v.obstacles), db.states)
	db.cur.Store(v)
	return db
}

// newEngine builds a read engine for v over the given trees and kernel,
// viewing each tree through a fresh page-fault counter. states may be nil,
// giving the engine a private query-state pool.
func newEngine(v *version, data, obst *rtree.Tree, kern *flatgeom.Kernel, states *core.StatePool) *core.Engine {
	dc, oc := &stats.PageCounter{}, &stats.PageCounter{}
	return &core.Engine{
		Data:        data.View(dc),
		Obst:        obst.View(oc),
		Obstacles:   v.obstacles,
		Kernel:      kern,
		Epoch:       v.epoch,
		States:      states,
		DataCounter: dc,
		ObstCounter: oc,
	}
}

// viewEngine builds a read engine over v's own indexes with fresh page-fault
// counters.
func viewEngine(v *version, states *core.StatePool) *core.Engine {
	return newEngine(v, v.eng.Data, v.eng.Obst, v.eng.Kernel, states)
}

// obstaclesNear returns the obstacles whose rectangles contain (or touch) p.
// The lookup runs through an unrecorded view so validation reads never
// perturb I/O accounting.
func (v *version) obstaclesNear(p Point) []Rect {
	var out []Rect
	w := geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
	v.eng.Obst.View(nil).Search(w, func(it rtree.Item) bool {
		out = append(out, v.obstacles[it.ID])
		return true
	})
	return out
}

// NumPoints returns the size of the data set P (excluding deleted points).
func (db *DB) NumPoints() int {
	v := db.current()
	return len(v.points) - len(v.deletedPts)
}

// NumObstacles returns the size of the obstacle set O (excluding deleted
// obstacles).
func (db *DB) NumObstacles() int {
	v := db.current()
	return len(v.obstacles) - len(v.deletedObs)
}

// Version returns the database's snapshot epoch. It starts at 1 and
// increases by one with every successful mutation; clones report the epoch
// of the version they pinned.
func (db *DB) Version() uint64 { return db.current().epoch }

// PointByID returns the data point with the given result PID.
func (db *DB) PointByID(pid int32) (Point, bool) {
	v := db.current()
	if pid < 0 || int(pid) >= len(v.points) || v.deletedPts[pid] {
		return Point{}, false
	}
	return v.points[pid], true
}

// Points returns the live (non-deleted) data points of the current snapshot.
// The slice is freshly allocated and compact: its indexes are NOT PIDs when
// points have been deleted.
func (db *DB) Points() []Point {
	v := db.current()
	out := make([]Point, 0, len(v.points)-len(v.deletedPts))
	for pid, p := range v.points {
		if !v.deletedPts[int32(pid)] {
			out = append(out, p)
		}
	}
	return out
}

// Obstacles returns the live (non-deleted) obstacles of the current
// snapshot. The slice is freshly allocated and compact.
func (db *DB) Obstacles() []Rect {
	v := db.current()
	out := make([]Rect, 0, len(v.obstacles)-len(v.deletedObs))
	for oid, o := range v.obstacles {
		if !v.deletedObs[int32(oid)] {
			out = append(out, o)
		}
	}
	return out
}

// Clone returns an independent query handle pinned to the current snapshot:
// R-tree nodes, point/obstacle storage and tombstones are shared with this
// version, while page-fault counters are fresh per clone. Later mutations
// of the parent are invisible to the clone (and vice versa: a mutated clone
// forks its own version chain), so a clone is a stable, fully consistent
// view. Use one clone per goroutine when you need uncontaminated per-query
// fault metrics. Snapshot pins and Watch subscriptions do not carry over to
// the clone.
func (db *DB) Clone() *DB {
	v := db.current()
	// The clone starts with an empty answer cache of the same budget: it may
	// fork its own mutation history, so sharing entries (or their promotion
	// stream) with the parent would be unsound.
	cp := &DB{cfg: db.cfg, states: core.NewStatePool(), cache: anscache.New(db.cfg.cacheBytes)}
	if !db.cfg.noPlanner {
		// A fresh planner, not the parent's: the clone may fork its own
		// epoch chain, and groups must never cross handles.
		cp.planner = planner.New(plannerMaxGroups)
	}
	cp.cur.Store(&version{
		epoch:      v.epoch,
		points:     v.points,
		obstacles:  v.obstacles,
		deletedPts: v.deletedPts,
		deletedObs: v.deletedObs,
		eng:        viewEngine(v, cp.states),
	})
	return cp
}
