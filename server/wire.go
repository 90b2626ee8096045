package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"connquery"
)

// The wire format. Every type in this file mirrors one public connquery
// type with stable lowercase JSON names, so the HTTP surface is decoupled
// from Go identifier renames and usable from any language. Conversions are
// exact: float64 coordinates survive a JSON round-trip bit-for-bit (Go
// marshals the shortest representation that parses back to the same value),
// and the one non-finite value the engine produces — the +Inf obstructed
// distance of an unreachable pair — is carried as the JSON string "+Inf"
// via the Float type. The server and the e2e tests share these encoders,
// which is how the tests prove HTTP answers bit-identical to in-process
// ones.

// Float is a float64 whose JSON encoding survives infinities:
// encoding/json rejects non-finite values, but obstructed distances are
// +Inf when every path is blocked. Infinite values encode as the strings
// "+Inf" / "-Inf"; finite ones as plain JSON numbers.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`, `"Inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Point is the wire form of connquery.Point.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Rect is the wire form of connquery.Rect.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// Segment is the wire form of connquery.Segment.
type Segment struct {
	A Point `json:"a"`
	B Point `json:"b"`
}

// Span is the wire form of connquery.Span: a parametric sub-interval of
// [0, 1] along the query segment.
type Span struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Tuple is one ⟨point, interval⟩ element of a CONN answer. A pid of -1
// marks an interval with no reachable data point (p is then meaningless).
type Tuple struct {
	PID  int32 `json:"pid"`
	P    Point `json:"p"`
	Span Span  `json:"span"`
}

// Result is the wire form of a CONN-family answer (*connquery.Result).
// max_dist is the answer's RLMAX bound (the paper's Lemma 2): the maximum
// obstructed distance from any position on the segment to its nearest
// neighbor — an upper bound on how far any influencing object can be.
// "+Inf" when some interval has no reachable point.
type Result struct {
	Seg     Segment `json:"seg"`
	Tuples  []Tuple `json:"tuples"`
	MaxDist Float   `json:"max_dist"`
}

// Owner is one member of a COkNN answer set.
type Owner struct {
	PID int32 `json:"pid"`
	P   Point `json:"p"`
}

// KTuple is one ⟨owner set, interval⟩ element of a COkNN answer; owners are
// sorted by obstructed distance at the span midpoint.
type KTuple struct {
	Span   Span    `json:"span"`
	Owners []Owner `json:"owners"`
}

// KResult is the wire form of a COkNN answer (*connquery.KResult).
// max_dist is the k-th-neighbor RLMAX bound (the paper's Lemma 7).
type KResult struct {
	Seg     Segment  `json:"seg"`
	K       int      `json:"k"`
	Tuples  []KTuple `json:"tuples"`
	MaxDist Float    `json:"max_dist"`
}

// Neighbor is one answer of a point query (ONN, ObstructedRange,
// VisibleKNN).
type Neighbor struct {
	PID  int32 `json:"pid"`
	P    Point `json:"p"`
	Dist Float `json:"dist"`
}

// JoinPair is one result of an obstructed join query. For
// DistanceSemiJoin, a pid of -1 with an infinite dist marks a query point
// with no reachable data point.
type JoinPair struct {
	QIdx int   `json:"q_idx"`
	PID  int32 `json:"pid"`
	P    Point `json:"p"`
	Dist Float `json:"dist"`
}

// Trajectory is the wire form of *connquery.TrajectoryResult: one CONN
// Result per non-degenerate leg of the waypoint polyline.
type Trajectory struct {
	Waypoints []Point   `json:"waypoints"`
	Legs      []*Result `json:"legs"`
}

// Metrics is the wire form of connquery.Metrics, the paper's per-query
// cost profile. reach is the execution's retrieval footprint radius: the
// maximum distance from the query geometry at which the engine consulted
// its index streams ("+Inf" when a stream was exhausted under an unbounded
// threshold, e.g. for an unreachable interval).
type Metrics struct {
	FaultsData int64 `json:"faults_data"`
	FaultsObst int64 `json:"faults_obst"`
	NPE        int   `json:"npe"`
	NOE        int   `json:"noe"`
	SVG        int   `json:"svg"`
	CPUNs      int64 `json:"cpu_ns"`
	Reach      Float `json:"reach"`
}

// ExecRequest is the envelope decoded by POST /v1/exec and GET/POST
// /v1/watch. Kind selects the query family; the parameter fields that
// family needs must be set (the others are ignored). The option fields map
// onto the library's QueryOptions: at_version/snapshot pin an MVCC version
// (exec only — a watch follows the live chain by definition), workers pools
// a multi-item request or engages intra-query lanes (capped at the server's
// GOMAXPROCS), no_cache bypasses the answer cache (a bypassed exec
// always runs the engine and reports a fresh cost profile), and timeout_ms
// bounds the execution (capped by the server's configured maximum). limit
// applies to watches only: the stream closes after that many updates (0 =
// until disconnect).
type ExecRequest struct {
	Kind string `json:"kind"`

	// Query parameters, by kind:
	//   CONN, CNN          — seg
	//   COkNN              — seg, k
	//   ONN, VisibleKNN    — p, k
	//   ObstructedRange    — center, radius
	//   ObstructedDist     — a, b
	//   TrajectoryCONN     — waypoints
	//   CONNBatch          — segs
	//   EDistanceJoin      — queries, e
	//   DistanceSemiJoin   — queries
	//   ClosestPair        — queries
	Seg       *Segment  `json:"seg,omitempty"`
	Segs      []Segment `json:"segs,omitempty"`
	P         *Point    `json:"p,omitempty"`
	A         *Point    `json:"a,omitempty"`
	B         *Point    `json:"b,omitempty"`
	Center    *Point    `json:"center,omitempty"`
	K         int       `json:"k,omitempty"`
	Radius    float64   `json:"radius,omitempty"`
	E         float64   `json:"e,omitempty"`
	Waypoints []Point   `json:"waypoints,omitempty"`
	Queries   []Point   `json:"queries,omitempty"`

	// Per-call options.
	AtVersion *uint64 `json:"at_version,omitempty"`
	Snapshot  *uint64 `json:"snapshot,omitempty"`
	Workers   *int    `json:"workers,omitempty"`
	NoCache   bool    `json:"no_cache,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	Limit     int     `json:"limit,omitempty"`
}

// ExecResponse is the answer envelope of POST /v1/exec and of each watch
// update. Exactly one payload field is set, matching the request kind;
// epoch is the MVCC version the query executed against.
type ExecResponse struct {
	Kind        string    `json:"kind"`
	Epoch       uint64    `json:"epoch"`
	Metrics     Metrics   `json:"metrics"`
	ItemMetrics []Metrics `json:"item_metrics,omitempty"`

	Result     *Result     `json:"result,omitempty"`
	KResult    *KResult    `json:"kresult,omitempty"`
	Neighbors  []Neighbor  `json:"neighbors,omitempty"`
	Pairs      []JoinPair  `json:"pairs,omitempty"`
	Pair       *JoinPair   `json:"pair,omitempty"`
	Trajectory *Trajectory `json:"trajectory,omitempty"`
	Results    []*Result   `json:"results,omitempty"`
	Distance   *Float      `json:"distance,omitempty"`
}

// WatchUpdate is one streamed element of GET /v1/watch: the re-executed
// answer at epoch plus the delta against the previous update. A non-empty
// error ends the stream.
type WatchUpdate struct {
	Epoch        uint64        `json:"epoch"`
	Changed      bool          `json:"changed"`
	ChangedSpans []Span        `json:"changed_spans,omitempty"`
	Answer       *ExecResponse `json:"answer,omitempty"`
	Error        string        `json:"error,omitempty"`
}

// StreamMutation is one NDJSON line of the POST /v1/stream ingest body.
// op selects the operation and decides which other fields are required:
//
//	insert-point     — p (speed optional: declares a motion bound)
//	delete-point     — id
//	insert-obstacle  — rect
//	delete-obstacle  — id
//	move-point       — id, p (speed optional: re-declares the bound)
type StreamMutation struct {
	Op    string  `json:"op"`
	ID    *int32  `json:"id,omitempty"`
	P     *Point  `json:"p,omitempty"`
	Rect  *Rect   `json:"rect,omitempty"`
	Speed float64 `json:"speed,omitempty"`
}

// StreamResult is the outcome of one stream line within its tick, in input
// order: the assigned ID for inserts (the fresh PID for a completed move),
// whether a delete removed an existing object, and the member's validation
// error when it failed (a failed member never aborts its tick).
type StreamResult struct {
	ID      int32  `json:"id"`
	Deleted bool   `json:"deleted,omitempty"`
	Error   string `json:"error,omitempty"`
}

// StreamTick is one response line of POST /v1/stream: the epoch the tick
// published, the count of committed primitive mutations (a completed move
// contributes two), and the per-line outcomes. A line carrying only error
// reports a malformed input line (skipped; the stream continues) or, for a
// durable-tier failure, the fail-stop end of the ingest.
type StreamTick struct {
	Epoch   uint64         `json:"epoch,omitempty"`
	Applied int            `json:"applied,omitempty"`
	Results []StreamResult `json:"results,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MutateResponse is the body of the mutation endpoints. Epoch is the
// database version observed right after the mutation (it includes the
// mutation; with concurrent writers it may include later ones too).
type MutateResponse struct {
	PID     *int32 `json:"pid,omitempty"`
	OID     *int32 `json:"oid,omitempty"`
	Deleted *bool  `json:"deleted,omitempty"`
	Epoch   uint64 `json:"epoch"`
}

// SnapshotResponse describes one server-held MVCC pin.
type SnapshotResponse struct {
	ID        uint64 `json:"id"`
	Epoch     uint64 `json:"epoch"`
	ExpiresAt string `json:"expires_at"` // RFC 3339, sliding: touched on use
}

// CacheStats is the wire form of connquery.CacheStats: the answer cache's
// hit/miss/promotion counters and current contents. hits counts execs
// served without engine work (promoted_hits is the subset served from
// entries that survived at least one mutation); promotions counts entry
// validity extensions across mutations, invalidations the entries a
// mutation's impact region actually touched, evictions the size-bound
// removals, and sweeps the entries dropped for falling behind the
// invalidation frontier (cached for a pinned old epoch after the chain
// moved on). NPE/NOE totals in StatsResponse only grow on real
// executions, so (execs - hits) relates them to engine work done.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	PromotedHits  int64 `json:"promoted_hits"`
	Misses        int64 `json:"misses"`
	Promotions    int64 `json:"promotions"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Sweeps        int64 `json:"sweeps"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
}

// PlannerStats is the wire form of connquery.PlannerStats: the execution
// planner's cumulative counters. groups_formed counts shared sight-line
// certificate tables built (one per admission group with real concurrency),
// adoptions the executions that reused another execution's table, fallbacks
// the executions that consulted the planner but ran the private path, and
// build_ns/saved_ns the wall time spent building tables vs. the build work
// adoptions avoided. All zero when the planner is disabled (-no-planner).
type PlannerStats struct {
	GroupsFormed uint64 `json:"groups_formed"`
	Adoptions    uint64 `json:"adoptions"`
	Fallbacks    uint64 `json:"fallbacks"`
	BuildNs      int64  `json:"build_ns"`
	SavedNs      int64  `json:"saved_ns"`
}

// WatchDBStats is the wire form of connquery.WatchStats: the library's
// wake-filter counters. woken counts wake signals delivered to watchers;
// skipped counts commit×watcher pairs suppressed because the commit's
// impact region provably could not alter the watcher's answer;
// horizon_skips counts woken watchers that skipped re-execution because
// their delivered answer's validity horizon still covered every commit
// since.
type WatchDBStats struct {
	Woken        int64 `json:"woken"`
	Skipped      int64 `json:"skipped"`
	HorizonSkips int64 `json:"horizon_skips"`
}

// StreamStats aggregates the POST /v1/stream ingest counters: open streams,
// committed ticks, mutation lines committed through them, and malformed
// lines rejected in-stream.
type StreamStats struct {
	Open     int64 `json:"open"`
	Ticks    int64 `json:"ticks"`
	Lines    int64 `json:"lines"`
	Rejected int64 `json:"rejected"`
}

// StatsResponse is the body of GET /v1/stats: the live dataset shape plus
// cumulative serving counters, including the paper's NPE/NOE/|SVG| cost
// metrics summed (peak for SVG) over every query this process executed
// (answer-cache hits replay stored metrics and are excluded from the
// NPE/NOE totals), and the answer cache's counters.
type StatsResponse struct {
	Epoch         uint64           `json:"epoch"`
	Points        int              `json:"points"`
	Obstacles     int              `json:"obstacles"`
	UptimeMS      int64            `json:"uptime_ms"`
	Execs         int64            `json:"execs"`
	ExecErrors    int64            `json:"exec_errors"`
	ExecsByKind   map[string]int64 `json:"execs_by_kind"`
	ExecsInFlight int64            `json:"execs_in_flight"`
	WatchesOpen   int64            `json:"watches_open"`
	WatchUpdates  int64            `json:"watch_updates"`
	Mutations     int64            `json:"mutations"`
	SnapshotsOpen int              `json:"snapshots_open"`
	NPETotal      int64            `json:"npe_total"`
	NOETotal      int64            `json:"noe_total"`
	SVGPeak       int64            `json:"svg_peak"`
	Cache         CacheStats       `json:"cache"`
	Planner       PlannerStats     `json:"planner"`
	Watch         WatchDBStats     `json:"watch"`
	Stream        StreamStats      `json:"stream"`
	// Shards carries the scatter-gather router's counters when the served
	// database is sharded; omitted for a single-node backend.
	Shards *connquery.ShardStats `json:"shards,omitempty"`
}

// ---------------------------------------------------------------------------
// Wire ↔ library conversions

func wirePoint(p connquery.Point) Point { return Point{X: p.X, Y: p.Y} }
func (p Point) lib() connquery.Point    { return connquery.Pt(p.X, p.Y) }
func wireSegment(s connquery.Segment) Segment {
	return Segment{A: wirePoint(s.A), B: wirePoint(s.B)}
}
func (s Segment) lib() connquery.Segment { return connquery.Seg(s.A.lib(), s.B.lib()) }
func (r Rect) lib() connquery.Rect       { return connquery.R(r.MinX, r.MinY, r.MaxX, r.MaxY) }
func wireSpan(s connquery.Span) Span     { return Span{Lo: s.Lo, Hi: s.Hi} }

func wirePoints(ps []Point) []connquery.Point {
	out := make([]connquery.Point, len(ps))
	for i, p := range ps {
		out[i] = p.lib()
	}
	return out
}

func wireSegs(ss []Segment) []connquery.Segment {
	out := make([]connquery.Segment, len(ss))
	for i, s := range ss {
		out[i] = s.lib()
	}
	return out
}

func wireMetrics(m connquery.Metrics) Metrics {
	return Metrics{
		FaultsData: m.FaultsData,
		FaultsObst: m.FaultsObst,
		NPE:        m.NPE,
		NOE:        m.NOE,
		SVG:        m.SVG,
		CPUNs:      int64(m.CPU),
		Reach:      Float(m.Reach),
	}
}

func wireResult(r *connquery.Result) *Result {
	if r == nil {
		return nil
	}
	out := &Result{Seg: wireSegment(r.Q), Tuples: make([]Tuple, len(r.Tuples)), MaxDist: Float(r.MaxDist)}
	for i, t := range r.Tuples {
		out.Tuples[i] = Tuple{PID: t.PID, P: wirePoint(t.P), Span: wireSpan(t.Span)}
	}
	return out
}

func wireKResult(r *connquery.KResult) *KResult {
	if r == nil {
		return nil
	}
	out := &KResult{Seg: wireSegment(r.Q), K: r.K, Tuples: make([]KTuple, len(r.Tuples)), MaxDist: Float(r.MaxDist)}
	for i, t := range r.Tuples {
		kt := KTuple{Span: wireSpan(t.Span), Owners: make([]Owner, len(t.Owners))}
		for j, o := range t.Owners {
			kt.Owners[j] = Owner{PID: o.PID, P: wirePoint(o.P)}
		}
		out.Tuples[i] = kt
	}
	return out
}

func wireNeighbors(ns []connquery.Neighbor) []Neighbor {
	out := make([]Neighbor, len(ns))
	for i, n := range ns {
		out[i] = Neighbor{PID: n.PID, P: wirePoint(n.P), Dist: Float(n.Dist)}
	}
	return out
}

func wirePair(p connquery.JoinPair) JoinPair {
	return JoinPair{QIdx: p.QIdx, PID: p.PID, P: wirePoint(p.P), Dist: Float(p.Dist)}
}

func wirePairs(ps []connquery.JoinPair) []JoinPair {
	out := make([]JoinPair, len(ps))
	for i, p := range ps {
		out[i] = wirePair(p)
	}
	return out
}

// EncodeAnswer converts an executed Answer into its wire envelope. It is
// exported so tests (and embedding callers) can encode in-process answers
// with exactly the encoder the HTTP handlers use.
func EncodeAnswer(ans *connquery.Answer) *ExecResponse {
	resp := &ExecResponse{
		Kind:    ans.Request().Kind(),
		Epoch:   ans.Epoch(),
		Metrics: wireMetrics(ans.Metrics()),
	}
	if items := ans.ItemMetrics(); items != nil {
		resp.ItemMetrics = make([]Metrics, len(items))
		for i, m := range items {
			resp.ItemMetrics[i] = wireMetrics(m)
		}
	}
	switch ans.Request().(type) {
	case connquery.CONNRequest, connquery.CNNRequest:
		resp.Result = wireResult(ans.Result())
	case connquery.COkNNRequest:
		resp.KResult = wireKResult(ans.KResult())
	case connquery.ONNRequest, connquery.RangeRequest, connquery.VisibleKNNRequest:
		resp.Neighbors = wireNeighbors(ans.Neighbors())
	case connquery.EDistanceJoinRequest, connquery.DistanceSemiJoinRequest:
		resp.Pairs = wirePairs(ans.Pairs())
	case connquery.ClosestPairRequest:
		p := wirePair(ans.Pair())
		resp.Pair = &p
	case connquery.TrajectoryRequest:
		t := ans.Trajectory()
		wt := &Trajectory{Waypoints: make([]Point, len(t.Waypoints)), Legs: make([]*Result, len(t.Legs))}
		for i, p := range t.Waypoints {
			wt.Waypoints[i] = wirePoint(p)
		}
		for i, leg := range t.Legs {
			wt.Legs[i] = wireResult(leg)
		}
		resp.Trajectory = wt
	case connquery.CONNBatchRequest:
		rs := ans.Results()
		resp.Results = make([]*Result, len(rs))
		for i, r := range rs {
			resp.Results[i] = wireResult(r)
		}
	case connquery.DistanceRequest:
		d := Float(ans.Distance())
		resp.Distance = &d
	}
	return resp
}

// need reports a missing required field for the request kind.
func need(kind, field string) error {
	return fmt.Errorf("%s requires %q", kind, field)
}

// ToRequest converts the envelope into the library's typed Request value.
// Field presence is validated here; value validation (degenerate segments,
// k < 1, negative radii, ...) is left to the library so the HTTP surface
// rejects exactly what Exec rejects.
func (e *ExecRequest) ToRequest() (connquery.Request, error) {
	kind := strings.ToLower(strings.TrimSpace(e.Kind))
	switch kind {
	case "conn":
		if e.Seg == nil {
			return nil, need("CONN", "seg")
		}
		return connquery.CONNRequest{Seg: e.Seg.lib()}, nil
	case "cnn":
		if e.Seg == nil {
			return nil, need("CNN", "seg")
		}
		return connquery.CNNRequest{Seg: e.Seg.lib()}, nil
	case "coknn":
		if e.Seg == nil {
			return nil, need("COkNN", "seg")
		}
		return connquery.COkNNRequest{Seg: e.Seg.lib(), K: e.K}, nil
	case "onn":
		if e.P == nil {
			return nil, need("ONN", "p")
		}
		return connquery.ONNRequest{P: e.P.lib(), K: e.K}, nil
	case "visibleknn":
		if e.P == nil {
			return nil, need("VisibleKNN", "p")
		}
		return connquery.VisibleKNNRequest{P: e.P.lib(), K: e.K}, nil
	case "obstructedrange", "range":
		if e.Center == nil {
			return nil, need("ObstructedRange", "center")
		}
		return connquery.RangeRequest{Center: e.Center.lib(), Radius: e.Radius}, nil
	case "obstructeddist", "distance":
		if e.A == nil || e.B == nil {
			return nil, need("ObstructedDist", "a and b")
		}
		return connquery.DistanceRequest{A: e.A.lib(), B: e.B.lib()}, nil
	case "trajectoryconn", "trajectory":
		if len(e.Waypoints) == 0 {
			return nil, need("TrajectoryCONN", "waypoints")
		}
		return connquery.TrajectoryRequest{Waypoints: wirePoints(e.Waypoints)}, nil
	case "connbatch":
		if len(e.Segs) == 0 {
			return nil, need("CONNBatch", "segs")
		}
		return connquery.CONNBatchRequest{Segs: wireSegs(e.Segs)}, nil
	case "edistancejoin":
		if len(e.Queries) == 0 {
			return nil, need("EDistanceJoin", "queries")
		}
		return connquery.EDistanceJoinRequest{Queries: wirePoints(e.Queries), E: e.E}, nil
	case "distancesemijoin":
		if len(e.Queries) == 0 {
			return nil, need("DistanceSemiJoin", "queries")
		}
		return connquery.DistanceSemiJoinRequest{Queries: wirePoints(e.Queries)}, nil
	case "closestpair":
		return connquery.ClosestPairRequest{Queries: wirePoints(e.Queries)}, nil
	case "":
		return nil, fmt.Errorf("missing request kind")
	}
	return nil, fmt.Errorf("unknown request kind %q", e.Kind)
}

// timeout returns the effective execution deadline for this request: the
// requested timeout_ms, capped by the server maximum; with no request
// timeout the cap itself applies (0 = unbounded).
func (e *ExecRequest) timeout(maxT time.Duration) time.Duration {
	req := time.Duration(e.TimeoutMS) * time.Millisecond
	if req <= 0 {
		return maxT
	}
	if maxT > 0 && req > maxT {
		return maxT
	}
	return req
}
