package connquery

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// batchFixture builds a mid-size database plus a set of valid query
// segments for the batch tests.
func batchFixture(t *testing.T, nQueries int) (*DB, []Segment) {
	t.Helper()
	r := rand.New(rand.NewSource(701))
	points := make([]Point, 600)
	for i := range points {
		points[i] = Pt(r.Float64()*5000, r.Float64()*5000)
	}
	obstacles := make([]Rect, 100)
	for i := range obstacles {
		lo := Pt(r.Float64()*5000, r.Float64()*5000)
		obstacles[i] = R(lo.X, lo.Y, lo.X+40, lo.Y+30)
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
	queries := make([]Segment, nQueries)
	for i := range queries {
		a := Pt(r.Float64()*5000, r.Float64()*5000)
		queries[i] = Seg(a, Pt(a.X+150+r.Float64()*100, a.Y+100))
	}
	return db, queries
}

// TestCONNBatchMatchesSequential races a CONNBatch worker pool (under the
// race detector in CI) and requires exact agreement with the sequential
// answers at every worker count.
func TestCONNBatchMatchesSequential(t *testing.T) {
	db, queries := batchFixture(t, 12)
	want := make([]*Result, len(queries))
	wantM := make([]Metrics, len(queries))
	for i, q := range queries {
		res, m, err := Run(context.Background(), db, CONNRequest{Seg: q})
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantM[i] = res, m
	}
	for _, workers := range []int{0, 1, 2, 4, 16} {
		ans, err := db.Exec(context.Background(), CONNBatchRequest{Segs: queries}, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, ms := ans.Results(), ans.ItemMetrics()
		if len(got) != len(queries) || len(ms) != len(queries) {
			t.Fatalf("workers=%d: %d results, %d metrics, want %d", workers, len(got), len(ms), len(queries))
		}
		for i := range queries {
			if len(got[i].Tuples) != len(want[i].Tuples) {
				t.Fatalf("workers=%d query %d: %d tuples, want %d", workers, i, len(got[i].Tuples), len(want[i].Tuples))
			}
			for j, tu := range got[i].Tuples {
				w := want[i].Tuples[j]
				if tu.PID != w.PID || tu.Span != w.Span {
					t.Fatalf("workers=%d query %d tuple %d: got {%d %v}, want {%d %v}",
						workers, i, j, tu.PID, tu.Span, w.PID, w.Span)
				}
			}
			// The algorithmic metrics are deterministic per query, so batch
			// workers must report exactly the sequential values.
			if ms[i].NPE != wantM[i].NPE || ms[i].NOE != wantM[i].NOE || ms[i].SVG != wantM[i].SVG {
				t.Fatalf("workers=%d query %d: metrics NPE/NOE/SVG = %d/%d/%d, want %d/%d/%d",
					workers, i, ms[i].NPE, ms[i].NOE, ms[i].SVG, wantM[i].NPE, wantM[i].NOE, wantM[i].SVG)
			}
		}
	}
}

// TestCONNBatchEdgeCases covers the empty batch and validation failures.
func TestCONNBatchEdgeCases(t *testing.T) {
	db, queries := batchFixture(t, 2)
	ans, err := db.Exec(context.Background(), CONNBatchRequest{}, WithWorkers(4))
	if err != nil || len(ans.Results()) != 0 || len(ans.ItemMetrics()) != 0 {
		t.Fatalf("empty batch: ans=%v err=%v", ans, err)
	}
	bad := append([]Segment{}, queries...)
	bad = append(bad, Seg(Pt(1, 1), Pt(1, 1))) // degenerate
	if _, err := db.Exec(context.Background(), CONNBatchRequest{Segs: bad}, WithWorkers(4)); err == nil {
		t.Fatal("degenerate query in batch must fail validation")
	}
}

func TestCloneProducesSameAnswers(t *testing.T) {
	db := smallDB(t)
	clone := db.Clone()
	q := Seg(Pt(0, 0), Pt(100, 0))
	a, _, err := Run(context.Background(), db, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(context.Background(), clone, CONNRequest{Seg: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("clone tuples %d vs %d", len(b.Tuples), len(a.Tuples))
	}
	for i := range a.Tuples {
		if a.Tuples[i].PID != b.Tuples[i].PID {
			t.Fatalf("tuple %d: %d vs %d", i, a.Tuples[i].PID, b.Tuples[i].PID)
		}
	}
}

func TestConcurrentClones(t *testing.T) {
	r := rand.New(rand.NewSource(901))
	points := make([]Point, 800)
	for i := range points {
		points[i] = Pt(r.Float64()*5000, r.Float64()*5000)
	}
	obstacles := make([]Rect, 120)
	for i := range obstacles {
		lo := Pt(r.Float64()*5000, r.Float64()*5000)
		obstacles[i] = R(lo.X, lo.Y, lo.X+40, lo.Y+30)
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

	// A reference answer per query, computed serially.
	queries := make([]Segment, 8)
	rq := rand.New(rand.NewSource(902))
	for i := range queries {
		for {
			a := Pt(rq.Float64()*5000, rq.Float64()*5000)
			b := Pt(a.X+200, a.Y+130)
			q := Seg(a, b)
			blocked := false
			for _, o := range obstacles {
				if o.BlocksSegment(q) {
					blocked = true
					break
				}
			}
			if !blocked {
				queries[i] = q
				break
			}
		}
	}
	want := make([][]int32, len(queries))
	for i, q := range queries {
		res, _, err := Run(context.Background(), db, CONNRequest{Seg: q})
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range res.Tuples {
			want[i] = append(want[i], tu.PID)
		}
	}

	// 8 goroutines, each with its own clone, race over all queries.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clone := db.Clone()
			for i, q := range queries {
				res, _, err := Run(context.Background(), clone, CONNRequest{Seg: q})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Tuples) != len(want[i]) {
					t.Errorf("query %d: %d tuples, want %d", i, len(res.Tuples), len(want[i]))
					return
				}
				for j, tu := range res.Tuples {
					if tu.PID != want[i][j] {
						t.Errorf("query %d tuple %d: %d vs %d", i, j, tu.PID, want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// --- MVCC stress: mutations racing live queries -------------------------

// checkPartition asserts a CONN answer is a contiguous partition of [0,1].
func checkPartition(t *testing.T, res *Result) bool {
	t.Helper()
	if len(res.Tuples) == 0 {
		t.Error("empty result")
		return false
	}
	if res.Tuples[0].Span.Lo != 0 || res.Tuples[len(res.Tuples)-1].Span.Hi != 1 {
		t.Errorf("result does not span [0,1]: %+v", res.Tuples)
		return false
	}
	for i := 1; i < len(res.Tuples); i++ {
		if res.Tuples[i].Span.Lo != res.Tuples[i-1].Span.Hi {
			t.Errorf("gap between tuples %d and %d: %+v", i-1, i, res.Tuples)
			return false
		}
	}
	return true
}

// sameAnswer compares two CONN answers structurally: identical owner
// coordinates (PIDs differ after compaction) and split positions up to a
// tiny numeric tolerance.
func sameAnswer(t *testing.T, label string, got, want *Result) bool {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Errorf("%s: %d tuples, want %d\n got: %+v\nwant: %+v", label, len(got.Tuples), len(want.Tuples), got.Tuples, want.Tuples)
		return false
	}
	const tol = 1e-9
	for i := range got.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if (g.PID == NoOwner) != (w.PID == NoOwner) {
			t.Errorf("%s tuple %d: owner/no-owner mismatch: %+v vs %+v", label, i, g, w)
			return false
		}
		if g.PID != NoOwner && g.P != w.P {
			t.Errorf("%s tuple %d: owner %v, want %v", label, i, g.P, w.P)
			return false
		}
		if math.Abs(g.Span.Lo-w.Span.Lo) > tol || math.Abs(g.Span.Hi-w.Span.Hi) > tol {
			t.Errorf("%s tuple %d: span %+v, want %+v", label, i, g.Span, w.Span)
			return false
		}
	}
	return true
}

// TestMutateUnderConcurrentQueries drives a single writer through a few
// hundred random mutations while (a) readers hammer CONN on the live handle
// and (b) snapshot verifiers pin a clone, query it, and require the answers
// to be identical to a fresh Open of exactly the point/obstacle sets that
// clone observed. Run with -race in CI, this is the proof of the MVCC
// contract: queries never see a half-applied mutation and every snapshot is
// a real, reconstructible version of the database.
func TestMutateUnderConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(1701))
	points := make([]Point, 0, 150)
	obstacles := make([]Rect, 0, 25)
	for i := 0; i < 25; i++ {
		lo := Pt(r.Float64()*950, r.Float64()*950)
		obstacles = append(obstacles, R(lo.X, lo.Y, lo.X+10+r.Float64()*30, lo.Y+8+r.Float64()*20))
	}
free:
	for len(points) < 150 {
		p := Pt(r.Float64()*1000, r.Float64()*1000)
		for _, o := range obstacles {
			if o.ContainsOpen(p) {
				continue free
			}
		}
		points = append(points, p)
	}
	db, err := Open(points, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Segment, 5)
	for i := range queries {
		a := Pt(r.Float64()*800, r.Float64()*800)
		queries[i] = Seg(a, Pt(a.X+120+r.Float64()*80, a.Y+90))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// The single writer: every kind of mutation, validation failures ignored.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wr := rand.New(rand.NewSource(1702))
		for i := 0; i < 250; i++ {
			switch wr.Intn(4) {
			case 0:
				db.InsertPoint(Pt(wr.Float64()*1000, wr.Float64()*1000))
			case 1:
				lo := Pt(wr.Float64()*950, wr.Float64()*950)
				db.InsertObstacle(R(lo.X, lo.Y, lo.X+5+wr.Float64()*25, lo.Y+5+wr.Float64()*15))
			case 2:
				db.DeletePoint(int32(wr.Intn(250)))
			case 3:
				db.DeleteObstacle(int32(wr.Intn(60)))
			}
		}
	}()

	// Live readers on the mutating handle: every answer must still be a
	// well-formed partition (and, under -race, data-race free).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, q := range queries {
					res, _, err := Run(context.Background(), db, CONNRequest{Seg: q})
					if err != nil {
						t.Error(err)
						return
					}
					if !checkPartition(t, res) {
						return
					}
				}
			}
		}()
	}

	// Snapshot verifiers: pin a clone mid-mutation, then rebuild that exact
	// version from scratch and demand identical answers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				c := db.Clone()
				fresh, err := Open(c.Points(), c.Obstacles())
				if err != nil {
					t.Errorf("verifier %d round %d: reopen version %d: %v", g, round, c.Version(), err)
					return
				}
				for qi, q := range queries {
					a, _, err := Run(context.Background(), c, CONNRequest{Seg: q})
					if err != nil {
						t.Error(err)
						return
					}
					b, _, err := Run(context.Background(), fresh, CONNRequest{Seg: q})
					if err != nil {
						t.Error(err)
						return
					}
					if !sameAnswer(t, fmt.Sprintf("verifier %d round %d version %d query %d", g, round, c.Version(), qi), a, b) {
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Batches pin one version for all workers: a batch racing the writer
	// must agree with a sequential pass over a clone taken at the same time
	// whenever the version did not change mid-setup (cheap final check, run
	// after the writer is done so it is deterministic).
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], _, err = Run(context.Background(), db, CONNRequest{Seg: q}); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := db.Exec(context.Background(), CONNBatchRequest{Segs: queries}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	got := batch.Results()
	for i := range queries {
		if !sameAnswer(t, fmt.Sprintf("final batch query %d", i), got[i], want[i]) {
			return
		}
	}
}
