package dataset

import (
	"math"
	"math/rand"

	"connquery/internal/geom"
)

// Side is the extent of the square search space used throughout the paper.
const Side = 10000.0

// CASize is the cardinality of the CA dataset (paper §5.1).
const CASize = 60344

// LASize is the cardinality of the LA dataset (paper §5.1).
const LASize = 131461

// Space is the search-space rectangle.
func Space() geom.Rect { return geom.R(0, 0, Side, Side) }

// Uniform draws n points uniformly over the search space.
func Uniform(n int, seed int64) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*Side, r.Float64()*Side)
	}
	return pts
}

// Zipf draws n points whose per-dimension coordinates follow a zipf-like
// power-law with skew coefficient alpha (the paper uses α = 0.8, dimensions
// independent): coordinate = Side * u^(1/(1-alpha)) concentrates mass near
// the origin with a heavy tail, the standard inverse-CDF construction for
// bounded zipf-distributed coordinates.
func Zipf(n int, alpha float64, seed int64) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	exp := 1 / (1 - alpha)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			Side*math.Pow(r.Float64(), exp),
			Side*math.Pow(r.Float64(), exp),
		)
	}
	return pts
}

// CA is the surrogate for the paper's California locations dataset: a
// mixture of Gaussian population clusters strung along a diagonal
// "coastline" corridor plus a uniform rural background, clipped to the
// search space. It has the same cardinality and the clustered non-uniform
// structure that drives the CL experiments.
func CA(seed int64) []geom.Point {
	return Clustered(CASize, 24, Side*0.035, 0.15, seed)
}

// Clustered draws n points from a Gaussian-mixture: clusters centers lie
// along a noisy diagonal corridor (mimicking a coastline/highway
// settlement pattern), sigma is the cluster spread and background is the
// fraction of uniformly scattered points.
func Clustered(n, clusters int, sigma, background float64, seed int64) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, clusters)
	weights := make([]float64, clusters)
	totalW := 0.0
	for i := range centers {
		// Corridor: t along the diagonal with lateral noise.
		t := r.Float64()
		lateral := (r.Float64() - 0.5) * Side * 0.35
		centers[i] = clampToSpace(geom.Pt(
			t*Side+lateral*0.3,
			t*Side-lateral,
		))
		w := math.Pow(r.Float64(), 2) + 0.05 // few big cities, many towns
		weights[i] = w
		totalW += w
	}
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		if r.Float64() < background {
			pts = append(pts, geom.Pt(r.Float64()*Side, r.Float64()*Side))
			continue
		}
		// Weighted cluster choice.
		x := r.Float64() * totalW
		ci := 0
		for ; ci < clusters-1; ci++ {
			if x < weights[ci] {
				break
			}
			x -= weights[ci]
		}
		p := geom.Pt(
			centers[ci].X+r.NormFloat64()*sigma,
			centers[ci].Y+r.NormFloat64()*sigma,
		)
		if Space().Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// LA is the surrogate for the paper's Los Angeles street-MBR dataset: a
// jittered street grid whose block size is calibrated so that LASize thin
// rectangles tile the space, with random segment lengths and occasional
// diagonal streets. Rectangles are thin (streets have small width), small
// relative to the space, and axis-aligned — the properties that govern
// |SVG|, NOE and IOR behaviour.
func LA(seed int64) []geom.Rect {
	return Streets(LASize, seed)
}

// Streets generates n street-like MBRs.
func Streets(n int, seed int64) []geom.Rect {
	r := rand.New(rand.NewSource(seed))
	// Street segment length distribution: mostly short blocks. The target
	// density reproduces LA's ~1.3 obstacles per unit^2 at full scale.
	out := make([]geom.Rect, 0, n)
	for len(out) < n {
		cx, cy := r.Float64()*Side, r.Float64()*Side
		length := 20 + r.ExpFloat64()*40 // block-scale segments
		if length > 400 {
			length = 400
		}
		width := 1 + r.Float64()*6 // street width -> thin MBR
		var rc geom.Rect
		if r.Intn(2) == 0 { // horizontal street
			rc = geom.R(cx-length/2, cy-width/2, cx+length/2, cy+width/2)
		} else { // vertical street
			rc = geom.R(cx-width/2, cy-length/2, cx+width/2, cy+length/2)
		}
		rc = clipRect(rc)
		if rc.Width() > geom.Eps && rc.Height() > geom.Eps {
			out = append(out, rc)
		}
	}
	return out
}

// FilterPoints drops points lying strictly inside any obstacle (the paper
// allows boundary points but not interior points). The obstacle list is
// scanned via a coarse grid for speed.
func FilterPoints(pts []geom.Point, obstacles []geom.Rect) []geom.Point {
	g := newGrid(obstacles, 128)
	out := pts[:0]
	for _, p := range pts {
		if !g.containsOpen(p) {
			out = append(out, p)
		}
	}
	return out
}

// QuerySegment draws a random query segment per the paper's methodology:
// random start point, random orientation in [0, 2π), length = frac*Side,
// clipped to the space. When avoid is non-nil, segments crossing an
// obstacle interior are rejected and redrawn (the paper's trajectories are
// travelable routes).
func QuerySegment(r *rand.Rand, frac float64, avoid []geom.Rect) geom.Segment {
	g := newGrid(avoid, 128)
	length := frac * Side
	for {
		a := geom.Pt(r.Float64()*Side, r.Float64()*Side)
		theta := r.Float64() * 2 * math.Pi
		b := geom.Pt(a.X+length*math.Cos(theta), a.Y+length*math.Sin(theta))
		if !Space().Contains(b) {
			continue
		}
		s := geom.Seg(a, b)
		if g.blocks(s) {
			continue
		}
		return s
	}
}

func clampToSpace(p geom.Point) geom.Point {
	return geom.Pt(math.Max(0, math.Min(Side, p.X)), math.Max(0, math.Min(Side, p.Y)))
}

func clipRect(rc geom.Rect) geom.Rect { return rc.Intersection(Space()) }

// grid is a uniform spatial hash over obstacles for fast rejection tests
// during generation (the R-trees are not built yet at that stage).
type grid struct {
	cells [][]int32
	n     int
	obs   []geom.Rect
}

func newGrid(obs []geom.Rect, n int) *grid {
	g := &grid{cells: make([][]int32, n*n), n: n, obs: obs}
	for i, o := range obs {
		x0, y0 := g.cellOf(o.MinX), g.cellOf(o.MinY)
		x1, y1 := g.cellOf(o.MaxX), g.cellOf(o.MaxY)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				g.cells[y*n+x] = append(g.cells[y*n+x], int32(i))
			}
		}
	}
	return g
}

func (g *grid) cellOf(v float64) int {
	c := int(v / Side * float64(g.n))
	if c < 0 {
		c = 0
	}
	if c >= g.n {
		c = g.n - 1
	}
	return c
}

func (g *grid) containsOpen(p geom.Point) bool {
	for _, i := range g.cells[g.cellOf(p.Y)*g.n+g.cellOf(p.X)] {
		if g.obs[i].ContainsOpen(p) {
			return true
		}
	}
	return false
}

func (g *grid) blocks(s geom.Segment) bool {
	b := s.Bounds()
	x0, y0 := g.cellOf(b.MinX), g.cellOf(b.MinY)
	x1, y1 := g.cellOf(b.MaxX), g.cellOf(b.MaxY)
	seen := map[int32]bool{}
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, i := range g.cells[y*g.n+x] {
				if seen[i] {
					continue
				}
				seen[i] = true
				if g.obs[i].BlocksSegment(s) {
					return true
				}
			}
		}
	}
	return false
}
