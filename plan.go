package connquery

import (
	"math"

	"connquery/internal/flatgeom"
	"connquery/internal/geom"
	"connquery/internal/planner"
)

// This file is the execution planner's attachment to DB.Exec: in-flight
// requests are grouped by an (epoch, quantized region) key derived from the
// request's query geometry (the same base box that seeds the answer cache's
// impact-region math), and each group with real concurrency shares one
// region-scoped sight-line certificate table built over the version's
// flat-geometry kernel. Members run their visibility-graph/Dijkstra/CPLC
// phases against it; anything the shared region does not cover falls back
// to the private geometric path per pair, so answers — payload, epoch and
// the NPE/NOE/|SVG|/Reach metrics — are bit-identical with the planner on
// or off. See internal/planner for the grouping policy and ARCHITECTURE.md
// ("Execution planner") for the invariant argument.

const (
	// plannerMaxGroups bounds the retained admission groups per handle;
	// epoch churn under mutation constantly retires keys, so this is a
	// memory cap, not a tuning knob.
	plannerMaxGroups = 256
	// plannerMaxCorners caps a shared region table's corner count, matching
	// the kernel's own full-table gate: beyond it the quadratic build costs
	// more than a storm amortizes.
	plannerMaxCorners = 600
	// plannerGridDiv and plannerMaxDiv clamp the quantization grid relative
	// to the world's obstacle bounding box: cells are at least world/32 (so
	// nearby point queries share a group) and at most world/4 (larger
	// requests run privately).
	plannerGridDiv = 32.0
	plannerMaxDiv  = 4.0
)

// PlannerStats reports the execution planner's cumulative counters for one
// handle (see WithPlanner): how many shared-table groups formed, how many
// executions adopted a shared table, how many consulted the planner but ran
// the private path, and the build time spent vs. saved. A sharded database
// aggregates the planners of every shard unit and union mirror.
type PlannerStats struct {
	// GroupsFormed counts shared tables built (a group forms only when at
	// least two requests were in flight on the same (epoch, region) key).
	GroupsFormed uint64 `json:"groups_formed"`
	// Adoptions counts executions that reused a table another one built.
	Adoptions uint64 `json:"adoptions"`
	// Fallbacks counts executions that consulted the planner but ran
	// privately (no concurrent partner, ungroupable request, declined
	// build, or cancellation while waiting).
	Fallbacks uint64 `json:"fallbacks"`
	// BuildNs is the total wall time spent building shared tables.
	BuildNs int64 `json:"build_ns"`
	// SavedNs estimates the build work adoptions avoided: each adoption
	// credits the build time of the table it reused.
	SavedNs int64 `json:"saved_ns"`
}

// PlannerStats returns the handle's planner counters; the zero value when
// the planner is disabled (WithNoPlanner).
func (db *DB) PlannerStats() PlannerStats {
	if db.planner == nil {
		return PlannerStats{}
	}
	s := db.planner.Stats()
	return PlannerStats{
		GroupsFormed: s.GroupsFormed,
		Adoptions:    s.Adoptions,
		Fallbacks:    s.Fallbacks,
		BuildNs:      s.BuildNs,
		SavedNs:      s.SavedNs,
	}
}

// addPlannerStats folds one handle's counters into an aggregate.
func addPlannerStats(agg *PlannerStats, st PlannerStats) {
	agg.GroupsFormed += st.GroupsFormed
	agg.Adoptions += st.Adoptions
	agg.Fallbacks += st.Fallbacks
	agg.BuildNs += st.BuildNs
	agg.SavedNs += st.SavedNs
}

// admitPlanner consults the planner for req at version v and returns the
// group ticket, or nil when the planner is off or cannot apply: worlds
// small enough for the kernel's full corner table already share every
// sight-line certificate globally, so the planner only engages where that
// table is gated off.
func (db *DB) admitPlanner(req Request, v *version) *planner.Ticket {
	p := db.planner
	if p == nil {
		return nil
	}
	k := v.eng.Kernel
	if k == nil || k.Corners() != nil {
		return nil
	}
	w := k.Bounds()
	side := math.Max(w.MaxX-w.MinX, w.MaxY-w.MinY)
	if !(side > 0) {
		return nil
	}
	return p.Admit(v.epoch, req.baseBox(), side/plannerGridDiv, side/plannerMaxDiv)
}

// plannerBuild returns the builder closure handed to the admission group:
// one region-scoped certificate table over v's kernel, full-set blocker
// lists, declined when the region is too dense to amortize.
func plannerBuild(v *version) func(region geom.Rect) *flatgeom.CornerTable {
	return func(region geom.Rect) *flatgeom.CornerTable {
		return v.eng.Kernel.RegionTable(region, plannerMaxCorners)
	}
}
