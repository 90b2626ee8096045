package connquery

import (
	"context"
	"math"
	"testing"
)

func smallDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	points := []Point{Pt(10, 10), Pt(50, 50), Pt(90, 10), Pt(50, 90)}
	obstacles := []Rect{R(40, 20, 60, 40)}
	db, err := Open(points, obstacles, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, nil); err == nil {
		t.Fatal("Open with no points succeeded")
	}
	if _, err := Open([]Point{Pt(1, 1)}, []Rect{{MinX: 5, MinY: 5, MaxX: 1, MaxY: 1}}); err == nil {
		t.Fatal("Open with malformed obstacle succeeded")
	}
	// Point strictly inside an obstacle.
	if _, err := Open([]Point{Pt(5, 5)}, []Rect{R(0, 0, 10, 10)}); err == nil {
		t.Fatal("Open with interior point succeeded")
	}
	// Boundary point is legal.
	if _, err := Open([]Point{Pt(0, 5)}, []Rect{R(0, 0, 10, 10)}); err != nil {
		t.Fatalf("Open with boundary point failed: %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	db := smallDB(t)
	if _, _, err := Run(context.Background(), db, CONNRequest{Seg: Seg(Pt(1, 1), Pt(1, 1))}); err == nil {
		t.Fatal("degenerate CONN accepted")
	}
	if _, _, err := Run(context.Background(), db, COkNNRequest{Seg: Seg(Pt(0, 0), Pt(1, 0)), K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := Run(context.Background(), db, ONNRequest{P: Pt(0, 0), K: 0}); err == nil {
		t.Fatal("ONN k=0 accepted")
	}
}

func TestCONNBasic(t *testing.T) {
	db := smallDB(t)
	q := Seg(Pt(0, 0), Pt(100, 0))
	res, m, err := Run(context.Background(), db, CONNRequest{Seg: q})
	if err != nil {
		t.Fatalf("CONN: %v", err)
	}
	if len(res.Tuples) < 2 {
		t.Fatalf("expected multiple tuples along q, got %+v", res.Tuples)
	}
	first, _ := res.OwnerAt(0)
	last, _ := res.OwnerAt(1)
	if first.PID != 0 || last.PID != 2 {
		t.Fatalf("owners: first=%d last=%d, want 0 and 2", first.PID, last.PID)
	}
	if m.NPE == 0 || m.CPU <= 0 {
		t.Fatalf("metrics not populated: %+v", m)
	}
}

func TestCOkNNBasic(t *testing.T) {
	db := smallDB(t)
	res, _, err := Run(context.Background(), db, COkNNRequest{Seg: Seg(Pt(0, 0), Pt(100, 0)), K: 2})
	if err != nil {
		t.Fatalf("COkNN: %v", err)
	}
	for _, tu := range res.Tuples {
		if len(tu.Owners) != 2 {
			t.Fatalf("owner set size %d, want 2: %+v", len(tu.Owners), tu)
		}
	}
}

func TestONNAndObstructedDist(t *testing.T) {
	db := smallDB(t)
	nbrs, _, err := Run(context.Background(), db, ONNRequest{P: Pt(50, 0), K: 1})
	if err != nil || len(nbrs) != 1 {
		t.Fatalf("ONN: %v %v", nbrs, err)
	}
	// (50,50) is straight above but blocked by the obstacle; its obstructed
	// distance must exceed the Euclidean 50.
	d := runDist(db, Pt(50, 0), Pt(50, 50))
	if d <= 50 {
		t.Fatalf("ObstructedDist through obstacle = %v, want > 50", d)
	}
	if got := runDist(db, Pt(1, 1), Pt(1, 1)); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
	if got, want := runDist(db, Pt(0, 0), Pt(3, 4)), 5.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("free-space distance = %v, want %v", got, want)
	}
}

// TestNaiveCONNPublic checks CONN against the §1 naive baseline built from
// the public API: an ONN query at evenly spaced positions along q must find
// the CONN owner everywhere away from the split points.
func TestNaiveCONNPublic(t *testing.T) {
	db := smallDB(t)
	ctx := context.Background()
	q := Seg(Pt(0, 0), Pt(100, 0))
	exact, _, err := Run(ctx, db, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 50; k++ {
		tt := float64(k) / 50
		nearSplit := false
		for _, s := range exact.SplitPoints() {
			if math.Abs(tt-s) < 0.02 {
				nearSplit = true
			}
		}
		if nearSplit {
			continue
		}
		nbrs, _, err := Run(ctx, db, ONNRequest{P: q.At(tt), K: 1})
		if err != nil {
			t.Fatal(err)
		}
		naive := NoOwner
		if len(nbrs) > 0 {
			naive = nbrs[0].PID
		}
		if a, _ := exact.OwnerAt(tt); a.PID != naive {
			t.Fatalf("t=%v: exact %d vs naive %d", tt, a.PID, naive)
		}
	}
}

func TestCNNIgnoresObstacles(t *testing.T) {
	db := smallDB(t)
	q := Seg(Pt(0, 60), Pt(100, 60))
	cnn, _, err := Run(context.Background(), db, CNNRequest{Seg: q})
	if err != nil {
		t.Fatalf("CNN: %v", err)
	}
	mid, _ := cnn.OwnerAt(0.5)
	if mid.PID != 1 {
		t.Fatalf("CNN middle owner = %d, want 1 (the (50,50) point)", mid.PID)
	}
}

func TestPointByID(t *testing.T) {
	db := smallDB(t)
	if p, ok := db.PointByID(1); !ok || p != Pt(50, 50) {
		t.Fatalf("PointByID(1) = %v %v", p, ok)
	}
	if _, ok := db.PointByID(-1); ok {
		t.Fatal("PointByID(-1) succeeded")
	}
	if _, ok := db.PointByID(100); ok {
		t.Fatal("PointByID out of range succeeded")
	}
	if db.NumPoints() != 4 || db.NumObstacles() != 1 {
		t.Fatalf("sizes: %d points %d obstacles", db.NumPoints(), db.NumObstacles())
	}
}
