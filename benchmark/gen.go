package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"connquery/internal/bench"
	"connquery/internal/dataset"
	"connquery/internal/geom"
	"connquery/server"
)

// mapSeed fixes the dataset: the CL surrogate at this seed is the
// benchmark's map, as CA/LA are the paper's. Only the traffic is drawn from
// the run's -seed. A map that changed with the seed would move the median
// query cost by ±8 % between runs (measured over 8 seeds), which is wider
// than the bound on query_p50_ms; a fixed map leaves ±2 %.
const mapSeed = 2009

const side = dataset.Side

// world is the generated dataset plus two grids over its obstacles, so every
// generated point, segment and move can be checked before it is sent: the
// server never sees an input it must reject, nor one that makes it search the
// whole map.
type world struct {
	points    []geom.Point
	obstacles []geom.Rect
	n         int
	cells     [][]int32 // obstacles overlapping each coarse cell
	open      []bool    // fine raster: cell lies in the map's main free region
}

// rasterN is the fine raster's resolution: 4-unit cells, thinner than no
// street, so every street is a closed wall on it.
const rasterN = 2500

func newWorld(scale float64) *world {
	wl := bench.BuildWorkload("CL", scale, 1, mapSeed)
	w := &world{points: wl.Points, obstacles: wl.Obstacles, n: 128}
	w.cells = make([][]int32, w.n*w.n)
	for i, o := range w.obstacles {
		x0, y0, x1, y1 := w.cell(o.MinX), w.cell(o.MinY), w.cell(o.MaxX), w.cell(o.MaxY)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				w.cells[y*w.n+x] = append(w.cells[y*w.n+x], int32(i))
			}
		}
	}
	w.fillOpen()
	return w
}

func (w *world) cell(v float64) int {
	c := int(v / side * float64(w.n))
	return max(0, min(w.n-1, c))
}

func fine(v float64) int {
	return max(0, min(rasterN-1, int(v/side*rasterN)))
}

// fillOpen marks the raster cells of the largest connected obstacle-free
// region. Overlapping streets seal small pockets off from the rest of the
// map; a query placed in one finds fewer than k reachable points and makes
// the engine evaluate every point of the dataset, for minutes. Requests are
// only ever placed in the main region, from which every point outside a
// pocket is reachable.
func (w *world) fillOpen() {
	const blocked, unseen = -1, 0
	label := make([]int32, rasterN*rasterN)
	for _, o := range w.obstacles {
		for y := fine(o.MinY); y <= fine(o.MaxY); y++ {
			for x := fine(o.MinX); x <= fine(o.MaxX); x++ {
				label[y*rasterN+x] = blocked
			}
		}
	}
	var best, bestSize, next int32
	var queue []int32
	for start := range label {
		if label[start] != unseen {
			continue
		}
		next++
		label[start] = next
		queue = append(queue[:0], int32(start))
		size := int32(0)
		for len(queue) > 0 {
			c := int(queue[len(queue)-1])
			queue = queue[:len(queue)-1]
			size++
			x, y := c%rasterN, c/rasterN
			for _, nb := range [4][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
				if nb[0] < 0 || nb[0] >= rasterN || nb[1] < 0 || nb[1] >= rasterN {
					continue
				}
				if i := nb[1]*rasterN + nb[0]; label[i] == unseen {
					label[i] = next
					queue = append(queue, int32(i))
				}
			}
		}
		if size > bestSize {
			best, bestSize = next, size
		}
	}
	w.open = make([]bool, len(label))
	for i, l := range label {
		w.open[i] = l == best
	}
}

// free reports whether p lies in the map's main free region: in the space,
// inside no obstacle, and in no sealed pocket.
func (w *world) free(p geom.Point) bool {
	return dataset.Space().Contains(p) && w.open[fine(p.Y)*rasterN+fine(p.X)]
}

// clear reports whether s is a travelable route (as the paper's trajectories
// are): it starts in the main free region, stays in the space and crosses no
// obstacle interior.
func (w *world) clear(s geom.Segment) bool {
	if !w.free(s.A) || !dataset.Space().Contains(s.B) {
		return false
	}
	b := s.Bounds()
	for y := w.cell(b.MinY); y <= w.cell(b.MaxY); y++ {
		for x := w.cell(b.MinX); x <= w.cell(b.MaxX); x++ {
			for _, i := range w.cells[y*w.n+x] {
				if w.obstacles[i].BlocksSegment(s) {
					return false
				}
			}
		}
	}
	return true
}

// writeCSV writes the dataset where the child reads it.
func (w *world) writeCSV(dir string) (pointsCSV, obstaclesCSV string, err error) {
	pointsCSV, obstaclesCSV = filepath.Join(dir, "points.csv"), filepath.Join(dir, "obstacles.csv")
	pf, err := os.Create(pointsCSV)
	if err != nil {
		return "", "", err
	}
	defer pf.Close()
	if err := dataset.WritePointsCSV(pf, w.points); err != nil {
		return "", "", err
	}
	of, err := os.Create(obstaclesCSV)
	if err != nil {
		return "", "", err
	}
	defer of.Close()
	if err := dataset.WriteRectsCSV(of, w.obstacles); err != nil {
		return "", "", err
	}
	if err := pf.Close(); err != nil {
		return "", "", err
	}
	return pointsCSV, obstaclesCSV, of.Close()
}

// Generator streams. Each kind of traffic draws from its own source, so
// resizing one phase never shifts the inputs of another.
const (
	streamTable = iota + 1
	streamShort
	streamZipf
	streamWrites
	streamFleet
	streamWatch
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919))
}

func wirePt(p geom.Point) *server.Point { return &server.Point{X: p.X, Y: p.Y} }

func wireSeg(s geom.Segment) *server.Segment {
	return &server.Segment{A: *wirePt(s.A), B: *wirePt(s.B)}
}

// freeIn draws a free point from box, which must be large against any one
// obstacle.
func (w *world) freeIn(r *rand.Rand, box geom.Rect) geom.Point {
	for {
		if p, ok := w.freeNear(r, box); ok {
			return p
		}
	}
}

// freeNear draws a free point from a small box; ok is false when 16 draws
// all fell inside obstacles, as they do in a box a street covers.
func (w *world) freeNear(r *rand.Rand, box geom.Rect) (geom.Point, bool) {
	for try := 0; try < 16; try++ {
		p := geom.Pt(box.MinX+r.Float64()*box.Width(), box.MinY+r.Float64()*box.Height())
		if w.free(p) {
			return p, true
		}
	}
	return geom.Point{}, false
}

// segmentIn draws a travelable segment of the given length starting in box,
// at a random orientation; ok is false when 64 draws all hit an obstacle or
// left the space (a box sealed by streets).
func (w *world) segmentIn(r *rand.Rand, box geom.Rect, length float64) (geom.Segment, bool) {
	for try := 0; try < 64; try++ {
		a := geom.Pt(box.MinX+r.Float64()*box.Width(), box.MinY+r.Float64()*box.Height())
		th := r.Float64() * 2 * math.Pi
		s := geom.Seg(a, geom.Pt(a.X+length*math.Cos(th), a.Y+length*math.Sin(th)))
		if w.clear(s) {
			return s, true
		}
	}
	return geom.Segment{}, false
}

// Table 2 mix: the paper's cell, 70 % CONN, 15 % COkNN k=5, 15 % ONN k=5.
// The query length is Table 2's 3 % setting, not its 4.5 % default: at 4.5 %
// one request costs ~36 ms at scale 0.1 (52 ms on four shards), and the
// driver's time cap leaves no room for the 1 000 samples a p99 needs.
const (
	tableQL = 0.03
	tableK  = 5
	shortQL = 0.01
	shortK  = 3
)

// tableRequests returns n distinct requests of the Table 2 mix. Start points
// are stratified: every round visits each cell of a 32x32 grid once, in a
// seeded order, so any 1 000 consecutive requests cover the whole map and
// the run-to-run spread of the mean cost is the spread within cells only.
// Kinds are stratified the same way in blocks of 20.
func (w *world) tableRequests(seed int64, n int) []server.ExecRequest {
	const g = 32
	r := newRand(seed, streamTable)
	kinds := make([]string, 0, 20)
	out := make([]server.ExecRequest, 0, n)
	var order []int
	for len(out) < n {
		if len(order) == 0 {
			order = r.Perm(g * g)
		}
		if len(kinds) == 0 {
			for i := 0; i < 20; i++ {
				switch {
				case i < 14:
					kinds = append(kinds, "CONN")
				case i < 17:
					kinds = append(kinds, "COkNN")
				default:
					kinds = append(kinds, "ONN")
				}
			}
			r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		c := order[0]
		order = order[1:]
		box := geom.R(float64(c%g)*side/g, float64(c/g)*side/g, float64(c%g+1)*side/g, float64(c/g+1)*side/g)
		kind := kinds[0]
		if kind == "ONN" {
			kinds = kinds[1:]
			out = append(out, server.ExecRequest{Kind: kind, P: wirePt(w.freeIn(r, box)), K: tableK})
			continue
		}
		s, ok := w.segmentIn(r, box, tableQL*side)
		if !ok {
			continue // sealed or border cell: the round simply has one request fewer
		}
		kinds = kinds[1:]
		req := server.ExecRequest{Kind: kind, Seg: wireSeg(s)}
		if kind == "COkNN" {
			req.K = tableK
		}
		out = append(out, req)
	}
	return out
}

// shortRequests returns n distinct short requests inside box: 50 % CONN at
// ql 1 %, 30 % ONN k=3, 20 % ObstructedDist over a ql-long free pair.
func (w *world) shortRequests(seed int64, n int, box geom.Rect) []server.ExecRequest {
	r := newRand(seed, streamShort)
	out := make([]server.ExecRequest, 0, n)
	for len(out) < n {
		switch i := len(out) % 10; {
		case i < 5:
			if s, ok := w.segmentIn(r, box, shortQL*side); ok {
				out = append(out, server.ExecRequest{Kind: "CONN", Seg: wireSeg(s)})
			}
		case i < 8:
			out = append(out, server.ExecRequest{Kind: "ONN", P: wirePt(w.freeIn(r, box)), K: shortK})
		default:
			if s, ok := w.segmentIn(r, box, shortQL*side); ok {
				out = append(out, server.ExecRequest{Kind: "ObstructedDist", A: wirePt(s.A), B: wirePt(s.B)})
			}
		}
	}
	return out
}

// zipfSequence draws n indices into a pool of the given size with
// P(rank r) ∝ r^-s; rank r maps to pool index r, so the head of the pool is
// hot.
func zipfSequence(seed int64, n, pool int, s float64) []int32 {
	cum := make([]float64, pool)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	r := newRand(seed, streamZipf)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(sort.SearchFloat64s(cum, r.Float64()*total))
	}
	return out
}

// frac returns the sub-rectangle of the space given in fractions of its side.
func frac(x0, y0, x1, y1 float64) geom.Rect {
	return geom.R(x0*side, y0*side, x1*side, y1*side)
}

// The commuter pool lives downtown; its far writes land in the opposite
// corner, where no pooled answer's impact region reaches.
var (
	poolBox     = frac(0.55, 0.55, 0.85, 0.85)
	farBox      = frac(0.02, 0.60, 0.30, 0.98)
	districtBox = frac(0.15, 0.15, 0.35, 0.35) // the fleet's district, inside shard cell 0
)

// unaryWrites returns n write positions for the hot read phase: 75 % far
// from the pool (cached answers are promoted across the commit), 25 % inside
// it (answers are invalidated and re-executed). Each position is inserted and
// deleted again by the next write, so the dataset keeps its size.
func (w *world) unaryWrites(seed int64, n int) []geom.Point {
	r := newRand(seed, streamWrites)
	out := make([]geom.Point, n)
	for i := range out {
		if i%4 == 3 {
			out[i] = w.freeIn(r, poolBox)
		} else {
			out[i] = w.freeIn(r, farBox)
		}
	}
	return out
}

// fleet is the tracked vehicle set and its watch. The first `inner` vehicles
// ride along the watch segment, within 8 units of it: they are the watch's
// nearest neighbours, so a move of any of them lies inside the watch's impact
// region and must wake it. Every fourth line of the feed moves an inner
// vehicle, so every tick carries one and every tick yields a watch update.
// Every position in alt is free, so every move is valid by construction.
type fleet struct {
	watch geom.Segment
	inner int
	alt   [][4]geom.Point
	speed float64 // declared bound, world units per second
}

// fleetSpeed is generous against the largest hop (a border crosser's 40
// units) at the shortest interval between two moves of one vehicle.
const fleetSpeed = 400

// newFleet places n vehicles, n/16 of them inner. The outer ones jitter
// around homes in the district, or, when spread, over the whole space with one
// in ten hopping 40 units across the shard border at the middle of the map on
// every move.
func (w *world) newFleet(seed int64, n int, spread bool) *fleet {
	r := newRand(seed, streamFleet)
	f := &fleet{inner: n / 16, alt: make([][4]geom.Point, n), speed: fleetSpeed}
	// The watch belongs to the map, not to the traffic: what a re-execution
	// costs depends on the streets around the segment, and a watch that moved
	// with the seed moved watch_lag_p50_ms by ±15 % between seeds.
	centre, rw := districtBox.Center(), newRand(mapSeed, streamWatch)
	for {
		s, ok := w.segmentIn(rw, geom.R(centre.X-50, centre.Y-50, centre.X+50, centre.Y+50), shortQL*side)
		if ok {
			f.watch = s
			break
		}
	}
	bb := geom.RectFromPoints(w.points...)
	for _, o := range w.obstacles {
		bb = bb.Union(o)
	}
	mid := (bb.MinX + bb.MaxX) / 2
	around := func(c geom.Point, d float64) geom.Rect {
		return geom.R(c.X-d, c.Y-d, c.X+d, c.Y+d).Intersection(dataset.Space())
	}
	for v := range f.alt {
		home := [2]geom.Point{}
		for placed := false; !placed; {
			switch {
			case v < f.inner:
				home[0] = w.freeIn(r, around(f.watch.At((float64(v)+0.5)/float64(f.inner)), 8))
				home[1] = home[0]
			case spread && v%10 == 1:
				y := r.Float64() * side
				home = [2]geom.Point{geom.Pt(mid-20, y), geom.Pt(mid+20, y)}
			case spread:
				home[0] = w.freeIn(r, dataset.Space())
				home[1] = home[0]
			default:
				home[0] = w.freeIn(r, districtBox)
				home[1] = home[0]
			}
			placed = true
			for k := range f.alt[v] {
				var ok bool
				if f.alt[v][k], ok = w.freeNear(r, around(home[k%2], 2)); !ok {
					placed = false // a street covers this spot: draw another home
					break
				}
			}
		}
	}
	return f
}

// line describes line i of the feed: which vehicle moves, where to, and the
// index of that vehicle's previous line (negative for its first move, which
// uses the PID its insert returned). Lines 0, 4, 8, ... take the inner
// vehicles in turn; the three lines between take the outer ones in turn.
func (f *fleet) line(i int) (vehicle int, p geom.Point, prev int) {
	outer := len(f.alt) - f.inner
	var k int
	if i%4 == 0 {
		vehicle, k, prev = (i/4)%f.inner, (i/4)/f.inner, i-4*f.inner
	} else {
		j := i - i/4 - 1
		vehicle, k = f.inner+j%outer, j/outer
		if jp := j - outer; jp >= 0 {
			prev = jp + jp/3 + 1
		} else {
			prev = -1
		}
	}
	return vehicle, f.alt[vehicle][(k+1)%4], prev
}

// writeInputs records the generated traffic under dir, one JSON value per
// line: what the same seed must reproduce byte for byte.
func writeInputs(dir string, reads []server.ExecRequest, zipf []int32, writes []geom.Point, f *fleet, lines int) error {
	rf, err := os.Create(filepath.Join(dir, "reads.ndjson"))
	if err != nil {
		return err
	}
	defer rf.Close()
	enc := json.NewEncoder(rf)
	for i := range reads {
		if err := enc.Encode(&reads[i]); err != nil {
			return err
		}
	}
	if err := enc.Encode(zipf); err != nil {
		return err
	}
	if err := enc.Encode(writes); err != nil {
		return err
	}
	if err := rf.Close(); err != nil {
		return err
	}
	lf, err := os.Create(filepath.Join(dir, "lines.ndjson"))
	if err != nil {
		return err
	}
	defer lf.Close()
	fmt.Fprintf(lf, "{\"watch\":%s}\n", mustJSON(wireSeg(f.watch)))
	for i := 0; i < lines; i++ {
		v, p, _ := f.line(i)
		fmt.Fprintf(lf, "{\"vehicle\":%d,\"p\":%s}\n", v, mustJSON(wirePt(p)))
	}
	return lf.Close()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only wire structs of finite floats are passed in
	}
	return b
}
