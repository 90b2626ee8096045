package visgraph

import (
	"math"
	"math/rand"
	"testing"

	"connquery/internal/flatgeom"
	"connquery/internal/geom"
)

// degenerateScene draws grid-snapped rectangles, so many of them overlap,
// share an edge or touch at a corner, plus a fixed set of hand-placed
// degenerate pairs: edge-sharing, corner-touching, nested and duplicate.
func degenerateScene(rng *rand.Rand, n int) []geom.Rect {
	obs := []geom.Rect{
		geom.R(10, 10, 20, 20), geom.R(20, 10, 30, 20), // shared edge
		geom.R(30, 20, 40, 30),                         // touches the previous one at a corner
		geom.R(50, 50, 70, 70), geom.R(55, 55, 60, 60), // nested
		geom.R(80, 10, 90, 20), geom.R(80, 10, 90, 20), // duplicate
		geom.R(60, 80, 75, 90), geom.R(70, 85, 85, 95), // overlapping
	}
	for len(obs) < n {
		x, y := float64(rng.Intn(20))*5, float64(rng.Intn(20))*5
		w, h := float64(1+rng.Intn(3))*5, float64(1+rng.Intn(3))*5
		obs = append(obs, geom.R(x, y, x+w, y+h))
	}
	return obs
}

// freePoint draws a point off the 5-unit grid and outside every obstacle's
// open interior.
func freePoint(rng *rand.Rand, obs []geom.Rect) geom.Point {
	for {
		p := geom.Pt(float64(rng.Intn(110))+0.5, float64(rng.Intn(110))+0.5)
		inside := false
		for _, o := range obs {
			if o.ContainsOpen(p) {
				inside = true
				break
			}
		}
		if !inside {
			return p
		}
	}
}

// kernelLoad is one way of loading a scene into a kernel-backed graph.
type kernelLoad struct {
	name  string
	setup func(g *Graph, k *flatgeom.Kernel)
}

// TestKernelBatchDegenerateMatchesBrute drives the kernel path —
// SetKernel + AddObstacleIDs — on degenerate scenes three ways: sequential,
// on a two-lane worker pool (linkCornersParallel, invalidateEdgesParallel
// and addPointParallel run), and with a region-scoped shared corner table
// covering part of the world. After every batch, every node's edge set must
// equal the geom.Visible brute set over the loaded obstacles, all three
// adjacency lists must be identical (order included), and anchor-to-anchor
// and point-to-anchor distances must match BruteObstructedDist.
func TestKernelBatchDegenerateMatchesBrute(t *testing.T) {
	pool := NewWorkerPool(2)
	defer pool.Close()
	loads := []kernelLoad{
		{"sequential", func(*Graph, *flatgeom.Kernel) {}},
		{"pool", func(g *Graph, _ *flatgeom.Kernel) { g.SetPool(pool) }},
		{"shared", func(g *Graph, k *flatgeom.Kernel) {
			g.SetShared(k.RegionTable(geom.R(0, 0, 50, 60), 600))
		}},
	}
	rng := rand.New(rand.NewSource(4111))
	for trial := 0; trial < 6; trial++ {
		obs := degenerateScene(rng, 45+rng.Intn(30))
		k := flatgeom.NewKernel(obs)
		// Some kernel IDs are never loaded, like deleted obstacles.
		var batches [3][]int32
		for id := range obs {
			if id%7 != 3 {
				batches[id%3] = append(batches[id%3], int32(id))
			}
		}
		anchors := []geom.Point{freePoint(rng, obs), freePoint(rng, obs)}
		extra := []geom.Point{freePoint(rng, obs), freePoint(rng, obs), freePoint(rng, obs)}

		graphs := make([]*Graph, len(loads))
		for i, l := range loads {
			g := New()
			g.SetKernel(k)
			l.setup(g, k)
			g.AddPoint(anchors[0], KindAnchor)
			g.AddPoint(anchors[1], KindAnchor)
			graphs[i] = g
		}
		var loaded []geom.Rect
		for b, batch := range batches {
			for _, id := range batch {
				loaded = append(loaded, obs[id])
			}
			for _, g := range graphs {
				g.AddObstacleIDs(batch)
			}
			for i, g := range graphs {
				checkBruteEdges(t, g, loaded, trial, b, loads[i].name)
				if i > 0 {
					checkSameAdjacency(t, graphs[0], g, trial, b, loads[i].name)
				}
			}
			want := BruteObstructedDist(anchors[0], anchors[1], loaded)
			for i, g := range graphs {
				checkDist(t, g.Distance(0, 1), want, trial, b, loads[i].name)
			}
		}
		// Transient points once every batch is in: enough candidates for the
		// pooled AddPoint verdict pass.
		for _, p := range extra {
			want := BruteObstructedDist(p, anchors[0], loaded)
			ids := make([]NodeID, len(graphs))
			for i, g := range graphs {
				ids[i] = g.AddPoint(p, KindTransient)
				checkBruteEdges(t, g, loaded, trial, len(batches), loads[i].name)
				if i > 0 {
					checkSameAdjacency(t, graphs[0], g, trial, len(batches), loads[i].name)
				}
				checkDist(t, g.Distance(ids[i], 0), want, trial, len(batches), loads[i].name)
			}
			for i, g := range graphs {
				g.RemovePoint(ids[i])
			}
		}
	}
}

// checkBruteEdges asserts that g's edge set is exactly the brute-force
// visibility relation over the loaded obstacles.
func checkBruteEdges(t *testing.T, g *Graph, loaded []geom.Rect, trial, batch int, name string) {
	t.Helper()
	for u := range g.pts {
		if !g.alive[u] {
			continue
		}
		got := map[NodeID]bool{}
		for _, e := range g.adj[u] {
			got[e.to] = true
		}
		for v := range g.pts {
			if v == u || !g.alive[v] {
				continue
			}
			if want := geom.Visible(g.pts[u], g.pts[v], loaded); got[NodeID(v)] != want {
				t.Fatalf("trial %d batch %d %s: edge %d->%d = %v, want %v (%v -> %v)",
					trial, batch, name, u, v, got[NodeID(v)], want, g.pts[u], g.pts[v])
			}
		}
	}
}

// checkSameAdjacency asserts that two graphs hold identical nodes and
// adjacency lists, edge order included.
func checkSameAdjacency(t *testing.T, ref, g *Graph, trial, batch int, name string) {
	t.Helper()
	if len(ref.pts) != len(g.pts) {
		t.Fatalf("trial %d batch %d %s: %d nodes, sequential has %d", trial, batch, name, len(g.pts), len(ref.pts))
	}
	for u := range ref.pts {
		if ref.pts[u] != g.pts[u] || ref.alive[u] != g.alive[u] || ref.gidx[u] != g.gidx[u] {
			t.Fatalf("trial %d batch %d %s: node %d differs", trial, batch, name, u)
		}
		a, b := ref.adj[u], g.adj[u]
		if len(a) != len(b) {
			t.Fatalf("trial %d batch %d %s: node %d has %d edges, sequential %d", trial, batch, name, u, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d batch %d %s: node %d edge %d = %+v, sequential %+v", trial, batch, name, u, i, b[i], a[i])
			}
		}
	}
}

func checkDist(t *testing.T, got, want float64, trial, batch int, name string) {
	t.Helper()
	if math.IsInf(want, 1) != math.IsInf(got, 1) ||
		(!math.IsInf(want, 1) && math.Abs(got-want) > 1e-6*want) {
		t.Fatalf("trial %d batch %d %s: distance %v, brute %v", trial, batch, name, got, want)
	}
}
