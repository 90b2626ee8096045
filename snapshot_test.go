package connquery

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(801))
	points := make([]Point, 500)
	for i := range points {
		points[i] = Pt(r.Float64()*10000, r.Float64()*10000)
	}
	obstacles := make([]Rect, 80)
	for i := range obstacles {
		lo := Pt(r.Float64()*10000, r.Float64()*10000)
		obstacles[i] = R(lo.X, lo.Y, lo.X+30, lo.Y+20)
	}
	pts := points[:0]
	for _, p := range points {
		free := true
		for _, o := range obstacles {
			if o.ContainsOpen(p) {
				free = false
			}
		}
		if free {
			pts = append(pts, p)
		}
	}
	db, err := Open(pts, obstacles)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if db2.NumPoints() != db.NumPoints() || db2.NumObstacles() != db.NumObstacles() {
		t.Fatalf("sizes changed: %d/%d vs %d/%d",
			db2.NumPoints(), db2.NumObstacles(), db.NumPoints(), db.NumObstacles())
	}

	// Same answers before and after the round trip.
	q := Seg(Pt(1000, 5000), Pt(1450, 5000))
	a, _, err := Run(context.Background(), db, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(context.Background(), db2, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("tuples changed: %d vs %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if a.Tuples[i].PID != b.Tuples[i].PID {
			t.Fatalf("tuple %d owner changed: %d vs %d", i, a.Tuples[i].PID, b.Tuples[i].PID)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := smallDB(t)
	path := filepath.Join(t.TempDir(), "snap.connq")
	if err := db.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	db2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if db2.NumPoints() != db.NumPoints() {
		t.Fatal("point count changed")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
		append([]byte("CONNQv1\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), // huge count
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
	// Truncated body: valid magic + count but missing coordinates.
	var buf bytes.Buffer
	buf.WriteString("CONNQv1\n")
	buf.Write([]byte{2, 0, 0, 0, 0, 0, 0, 0}) // 2 points, no data
	if _, err := Load(&buf); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestLoadRejectsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("CONNQv1\n")
	buf.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	// NaN bits for x.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x7f})
	buf.Write(make([]byte, 8))
	buf.Write(make([]byte, 8)) // obstacle count 0
	if _, err := Load(&buf); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
}
