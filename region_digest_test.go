package connquery

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// regionDigest pins the answer cache's regions: the SHA-256, over every
// request digestRequests produces, of its answer's widened region on
// digestWorld (rectangle bits and sensitivity flags) and of which earlier
// request, if any, shares its fingerprint under each worker option. Any change to a request kind's
// base box, answer radius, sensitivity or fingerprint shows up here; a
// deliberate change to the fingerprint byte layout must bump fpSchema and
// re-record this constant.
const regionDigest = "39307d6321c4c3ec26605ce1a8629e8cf3015af6d0d2157960fb85bede16c017"

// digestA and digestB are free points of digestWorld's open field.
var digestA, digestB = Pt(100, 100), Pt(400, 250)

// digestWorld is a seeded random world plus a sealed room: four
// overlapping walls around (2000, 2000) with one data point inside, so
// answers that cross the walls are unreachable.
func digestWorld(t *testing.T) *DB {
	t.Helper()
	r := rand.New(rand.NewSource(31))
	obstacles := []Rect{
		R(1990, 1990, 2010, 1996), R(1990, 2004, 2010, 2010),
		R(1990, 1992, 1996, 2008), R(2004, 1992, 2010, 2008),
	}
	for len(obstacles) < 34 {
		x, y := r.Float64()*1000, r.Float64()*1000
		o := R(x, y, x+5+r.Float64()*60, y+5+r.Float64()*60)
		if !o.Buffer(1).Contains(digestA) && !o.Buffer(1).Contains(digestB) {
			obstacles = append(obstacles, o)
		}
	}
	points := []Point{Pt(2000, 2000), Pt(0, 5)}
	for len(points) < 150 {
		p := Pt(r.Float64()*1000, r.Float64()*1000)
		free := true
		for _, o := range obstacles {
			free = free && !o.ContainsOpen(p)
		}
		if free {
			points = append(points, p)
		}
	}
	db, err := Open(points, obstacles, WithAnswerCache(0))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// digestRequests covers all 12 kinds: seeded random requests of every
// kind, then the edge cases — degenerate trajectory legs, empty batch and
// join inputs, unreachable answers, and pairs that must share a
// fingerprint (-0.0 coordinates, swapped distance endpoints).
func digestRequests() []Request {
	r := rand.New(rand.NewSource(37))
	pt := func() Point { return Pt(r.Float64()*1000, r.Float64()*1000) }
	seg := func() Segment {
		a := pt()
		return Seg(a, Pt(a.X+(r.Float64()-0.5)*300, a.Y+(r.Float64()-0.5)*300))
	}
	var reqs []Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs,
			CONNRequest{Seg: seg()},
			COkNNRequest{Seg: seg(), K: 1 + r.Intn(3)},
			ONNRequest{P: pt(), K: 1 + r.Intn(4)},
			CNNRequest{Seg: seg()},
			RangeRequest{Center: pt(), Radius: r.Float64() * 150},
			VisibleKNNRequest{P: pt(), K: 1 + r.Intn(4)},
			DistanceRequest{A: pt(), B: pt()},
			TrajectoryRequest{Waypoints: []Point{pt(), pt(), pt()}},
			CONNBatchRequest{Segs: []Segment{seg(), seg()}},
			EDistanceJoinRequest{Queries: []Point{pt(), pt(), pt()}, E: r.Float64() * 100},
			DistanceSemiJoinRequest{Queries: []Point{pt(), pt()}},
			ClosestPairRequest{Queries: []Point{pt(), pt(), pt()}},
		)
	}
	a, b, in := digestA, digestB, Pt(2001, 2001)
	return append(reqs,
		// Degenerate legs: a repeated waypoint and a sub-Eps hop.
		TrajectoryRequest{Waypoints: []Point{a, a, b}},
		TrajectoryRequest{Waypoints: []Point{a, Pt(a.X+1e-10, a.Y), b, b}},
		// Empty multi-item inputs.
		CONNBatchRequest{},
		EDistanceJoinRequest{E: 50},
		DistanceSemiJoinRequest{},
		ClosestPairRequest{},
		RangeRequest{Center: a, Radius: 0},
		// Unreachable answers: too few reachable points, a sealed endpoint.
		ONNRequest{P: a, K: 1000},
		ONNRequest{P: in, K: 2},
		VisibleKNNRequest{P: in, K: 3},
		COkNNRequest{Seg: Seg(a, b), K: 1000},
		CONNRequest{Seg: Seg(Pt(1998, 2000), Pt(2002, 2000))},
		DistanceRequest{A: a, B: in},
		DistanceSemiJoinRequest{Queries: []Point{a, in}},
		TrajectoryRequest{Waypoints: []Point{Pt(1998, 1999), Pt(2002, 1999), Pt(2002, 2002)}},
		CONNBatchRequest{Segs: []Segment{Seg(a, b), Seg(Pt(1998, 2000), Pt(2002, 2001))}},
		EDistanceJoinRequest{Queries: []Point{in, a}, E: 20},
		ClosestPairRequest{Queries: []Point{in}},
		// Fingerprint twins.
		CONNRequest{Seg: Seg(Pt(0, 0), Pt(50, 0))},
		CONNRequest{Seg: Seg(Pt(math.Copysign(0, -1), 0), Pt(50, math.Copysign(0, -1)))},
		DistanceRequest{A: b, B: a},
		DistanceRequest{A: a, B: b},
		RangeRequest{Center: a, Radius: math.Copysign(0, -1)},
		CNNRequest{Seg: Seg(a, b)},
		CONNBatchRequest{Segs: []Segment{Seg(a, b)}},
	)
}

// TestRegionDigest hashes the widened region of every digest request's
// answer and the requests' fingerprint-sharing pattern (with and without a
// worker option) and compares the hash with regionDigest.
func TestRegionDigest(t *testing.T) {
	db := digestWorld(t)
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	flag := func(b bool) {
		if b {
			word(1)
		} else {
			word(0)
		}
	}
	first := map[string]int{}
	for i, req := range digestRequests() {
		ans, err := db.Exec(context.Background(), req, WithNoCache())
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, req.Kind(), err)
		}
		rg := answerRegion(req, ans.Value(), ans.Metrics().Reach)
		for _, v := range []float64{rg.Rect.MinX, rg.Rect.MinY, rg.Rect.MaxX, rg.Rect.MaxY} {
			word(math.Float64bits(v))
		}
		flag(rg.Points)
		flag(rg.Obstacles)
		for j, w := range []struct {
			n   int
			has bool
		}{{0, false}, {1, true}, {2, true}} {
			fp, ok := requestFingerprint(req, w.n, w.has)
			flag(ok)
			id := 3*i + j
			if prev, seen := first[fp]; ok && seen {
				id = prev
			} else if ok {
				first[fp] = id
			}
			word(uint64(id))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != regionDigest {
		t.Fatalf("region digest %s, want %s", got, regionDigest)
	}
}
