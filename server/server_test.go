package server_test

// End-to-end tests: a real HTTP listener (httptest.NewServer wraps a TCP
// socket) in front of server.Handler, exercised for every request kind,
// for watch streams under mutation, and for the snapshot TTL machinery.
// The central invariant: what arrives over the wire is bit-identical —
// payload, machine-independent metrics, epoch — to an in-process Exec
// pinned at the same MVCC epoch, proven by encoding the in-process Answer
// through the exact wire codec the handlers use and comparing bytes (only
// wall-clock CPU fields are zeroed; they cannot reproduce).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"connquery"
	"connquery/internal/bench"
	"connquery/server"
)

// testDB builds a small deterministic database with obstacles that make
// obstructed and Euclidean answers differ.
func testDB(t *testing.T) *connquery.DB {
	t.Helper()
	points := []connquery.Point{
		connquery.Pt(10, 40), connquery.Pt(90, 40), connquery.Pt(50, 85),
	}
	obstacles := []connquery.Rect{
		connquery.R(45, 10, 55, 70),
		connquery.R(20, 60, 30, 70),
	}
	db, err := connquery.Open(points, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestServer wires db behind a real TCP listener and registers cleanup.
func newTestServer(t *testing.T, db connquery.Database, cfg server.Config) (*server.Server, string) {
	t.Helper()
	cfg.DB = db
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close() // ends watch streams first so ts.Close can drain
		ts.Close()
	})
	return s, ts.URL
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// canonical renders a wire answer with its irreproducible wall-clock CPU
// fields zeroed, for byte comparison.
func canonical(t *testing.T, r *server.ExecResponse) []byte {
	t.Helper()
	cp := *r
	cp.Metrics.CPUNs = 0
	if cp.ItemMetrics != nil {
		items := make([]server.Metrics, len(cp.ItemMetrics))
		copy(items, cp.ItemMetrics)
		for i := range items {
			items[i].CPUNs = 0
		}
		cp.ItemMetrics = items
	}
	out, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertBitIdentical runs req in-process pinned at the HTTP answer's epoch
// and compares wire encodings byte for byte.
func assertBitIdentical(t *testing.T, db connquery.Database, req connquery.Request, got *server.ExecResponse, opts ...connquery.QueryOption) {
	t.Helper()
	opts = append(opts, connquery.AtVersion(got.Epoch))
	ans, err := db.Exec(context.Background(), req, opts...)
	if err != nil {
		t.Fatalf("in-process %s at epoch %d: %v", req.Kind(), got.Epoch, err)
	}
	want := server.EncodeAnswer(ans)
	g, w := canonical(t, got), canonical(t, want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: HTTP answer differs from in-process Exec at epoch %d\n http: %s\n exec: %s",
			req.Kind(), got.Epoch, g, w)
	}
}

func seg(ax, ay, bx, by float64) *server.Segment {
	return &server.Segment{A: server.Point{X: ax, Y: ay}, B: server.Point{X: bx, Y: by}}
}

func pt(x, y float64) *server.Point { return &server.Point{X: x, Y: y} }

// TestExecAllKinds drives every request kind through POST /v1/exec and
// checks each wire answer bit-identical to the in-process execution.
func TestExecAllKinds(t *testing.T) {
	db := testDB(t)
	_, base := newTestServer(t, db, server.Config{})
	q := seg(0, 0, 100, 0)
	qseg := connquery.Seg(connquery.Pt(0, 0), connquery.Pt(100, 0))
	two := 2
	cases := []struct {
		env ExecEnv
		req connquery.Request
	}{
		{ExecEnv{Kind: "CONN", Seg: q}, connquery.CONNRequest{Seg: qseg}},
		{ExecEnv{Kind: "CNN", Seg: q}, connquery.CNNRequest{Seg: qseg}},
		{ExecEnv{Kind: "COkNN", Seg: q, K: 2}, connquery.COkNNRequest{Seg: qseg, K: 2}},
		{ExecEnv{Kind: "ONN", P: pt(0, 0), K: 2}, connquery.ONNRequest{P: connquery.Pt(0, 0), K: 2}},
		{ExecEnv{Kind: "VisibleKNN", P: pt(0, 0), K: 2}, connquery.VisibleKNNRequest{P: connquery.Pt(0, 0), K: 2}},
		{ExecEnv{Kind: "ObstructedRange", Center: pt(0, 0), Radius: 70},
			connquery.RangeRequest{Center: connquery.Pt(0, 0), Radius: 70}},
		{ExecEnv{Kind: "ObstructedDist", A: pt(0, 0), B: pt(60, 40)},
			connquery.DistanceRequest{A: connquery.Pt(0, 0), B: connquery.Pt(60, 40)}},
		{ExecEnv{Kind: "TrajectoryCONN", Waypoints: []server.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 50}}},
			connquery.TrajectoryRequest{Waypoints: []connquery.Point{
				connquery.Pt(0, 0), connquery.Pt(100, 0), connquery.Pt(100, 50)}}},
		{ExecEnv{Kind: "CONNBatch", Segs: []server.Segment{*q, *seg(0, 20, 100, 20)}, Workers: &two},
			connquery.CONNBatchRequest{Segs: []connquery.Segment{
				qseg, connquery.Seg(connquery.Pt(0, 20), connquery.Pt(100, 20))}}},
		{ExecEnv{Kind: "EDistanceJoin", Queries: []server.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, E: 60},
			connquery.EDistanceJoinRequest{Queries: []connquery.Point{
				connquery.Pt(0, 0), connquery.Pt(100, 0)}, E: 60}},
		{ExecEnv{Kind: "DistanceSemiJoin", Queries: []server.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}},
			connquery.DistanceSemiJoinRequest{Queries: []connquery.Point{
				connquery.Pt(0, 0), connquery.Pt(100, 0)}}},
		{ExecEnv{Kind: "ClosestPair", Queries: []server.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}},
			connquery.ClosestPairRequest{Queries: []connquery.Point{
				connquery.Pt(0, 0), connquery.Pt(100, 0)}}},
	}
	for _, tc := range cases {
		t.Run(tc.req.Kind(), func(t *testing.T) {
			resp, body := postJSON(t, base+"/v1/exec", tc.env)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var got server.ExecResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("decode: %v\n%s", err, body)
			}
			if got.Kind != tc.req.Kind() {
				t.Fatalf("kind %q, want %q", got.Kind, tc.req.Kind())
			}
			if got.Epoch != db.Version() {
				t.Fatalf("epoch %d, want current %d", got.Epoch, db.Version())
			}
			var opts []connquery.QueryOption
			if tc.env.Workers != nil {
				opts = append(opts, connquery.WithWorkers(*tc.env.Workers))
			}
			assertBitIdentical(t, db, tc.req, &got, opts...)
		})
	}
}

// ExecEnv mirrors server.ExecRequest for building test payloads (same
// field set; kept separate so the test exercises real JSON decoding).
type ExecEnv = server.ExecRequest

// TestWatchStreamsBitIdenticalUnderMutation opens an HTTP watch, commits
// mutations through the HTTP API while the stream is live, and checks
// every streamed answer bit-identical to an in-process Exec pinned at the
// streamed epoch, with the owner-change delta reported.
func TestWatchStreamsBitIdenticalUnderMutation(t *testing.T) {
	db := testDB(t)
	_, base := newTestServer(t, db, server.Config{})
	qseg := connquery.Seg(connquery.Pt(0, 0), connquery.Pt(100, 0))
	env := ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0)}
	raw, _ := json.Marshal(env)

	req, err := http.NewRequest("GET", base+"/v1/watch?"+url.Values{"request": {string(raw)}}.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	next := func() server.WatchUpdate {
		t.Helper()
		if !scanner.Scan() {
			t.Fatalf("watch stream ended early: %v", scanner.Err())
		}
		var u server.WatchUpdate
		if err := json.Unmarshal(scanner.Bytes(), &u); err != nil {
			t.Fatalf("decode update: %v\n%s", err, scanner.Bytes())
		}
		if u.Error != "" {
			t.Fatalf("watch error update: %s", u.Error)
		}
		return u
	}

	u := next()
	if !u.Changed {
		t.Fatal("first update must report Changed")
	}
	assertBitIdentical(t, db, connquery.CONNRequest{Seg: qseg}, u.Answer)
	prevEpoch := u.Epoch

	// Mutations chosen to flip ownership along the watched segment: a new
	// point right under its left half wins a prefix, deleting it flips back.
	var sawDelta bool
	mutations := []func() (*http.Response, []byte){
		func() (*http.Response, []byte) {
			return postJSON(t, base+"/v1/points", map[string]any{"p": map[string]float64{"x": 15, "y": 5}})
		},
		func() (*http.Response, []byte) {
			return postJSON(t, base+"/v1/obstacles", map[string]any{
				"rect": map[string]float64{"min_x": 60, "min_y": 2, "max_x": 70, "max_y": 30}})
		},
		func() (*http.Response, []byte) {
			req, err := http.NewRequest("DELETE", base+"/v1/points/3", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp, buf.Bytes()
		},
	}
	for i, mutate := range mutations {
		resp, body := mutate()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutation %d: status %d: %s", i, resp.StatusCode, body)
		}
		var mr server.MutateResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		u := next()
		if u.Epoch <= prevEpoch {
			t.Fatalf("epochs not increasing: %d after %d", u.Epoch, prevEpoch)
		}
		if u.Epoch != mr.Epoch || u.Epoch != db.Version() {
			t.Fatalf("update epoch %d, mutation epoch %d, current %d", u.Epoch, mr.Epoch, db.Version())
		}
		if u.Changed && len(u.ChangedSpans) > 0 {
			sawDelta = true
		}
		assertBitIdentical(t, db, connquery.CONNRequest{Seg: qseg}, u.Answer)
		prevEpoch = u.Epoch
	}
	if !sawDelta {
		t.Fatal("no mutation produced an owner-change delta on the watched segment")
	}
}

// TestWatchLimitAndSSE checks the limit field closes the stream and the
// SSE framing variant.
func TestWatchLimitAndSSE(t *testing.T) {
	db := testDB(t)
	_, base := newTestServer(t, db, server.Config{})
	env := ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0), Limit: 1}
	raw, _ := json.Marshal(env)
	req, _ := http.NewRequest("POST", base+"/v1/watch", bytes.NewReader(raw))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil { // limit:1 → stream must end on its own
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.HasPrefix(body, "data: ") || strings.Count(body, "data: ") != 1 {
		t.Fatalf("want exactly one SSE event, got %q", body)
	}
}

// TestSnapshotEndpoints pins a version over HTTP, mutates past it, and
// checks pinned execs keep answering from the frozen epoch until release.
func TestSnapshotEndpoints(t *testing.T) {
	db := testDB(t)
	_, base := newTestServer(t, db, server.Config{})

	resp, body := postJSON(t, base+"/v1/snapshots", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create snapshot: %d %s", resp.StatusCode, body)
	}
	var snap server.SnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != db.Version() {
		t.Fatalf("snapshot epoch %d, want %d", snap.Epoch, db.Version())
	}

	if _, err := db.InsertPoint(connquery.Pt(15, 5)); err != nil {
		t.Fatal(err)
	}
	if db.Version() == snap.Epoch {
		t.Fatal("mutation did not advance the epoch")
	}

	qseg := connquery.Seg(connquery.Pt(0, 0), connquery.Pt(100, 0))
	env := ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0), Snapshot: &snap.ID}
	resp, body = postJSON(t, base+"/v1/exec", env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned exec: %d %s", resp.StatusCode, body)
	}
	var got server.ExecResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != snap.Epoch {
		t.Fatalf("pinned exec epoch %d, want pinned %d", got.Epoch, snap.Epoch)
	}
	assertBitIdentical(t, db, connquery.CONNRequest{Seg: qseg}, &got)

	// Listing shows the pin; releasing it kills pinned execs with 410.
	resp, body = func() (*http.Response, []byte) {
		r, err := http.Get(base + "/v1/snapshots")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	var listed []server.SnapshotResponse
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].ID != snap.ID {
		t.Fatalf("snapshot list %s, want the one pin", body)
	}

	delReq, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/snapshots/%d", base, snap.ID), nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("release: %d", delResp.StatusCode)
	}
	resp, body = postJSON(t, base+"/v1/exec", env)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("exec after release: status %d (%s), want 410", resp.StatusCode, body)
	}
}

// TestSnapshotTTLExpiry checks the janitor releases abandoned pins.
func TestSnapshotTTLExpiry(t *testing.T) {
	db := testDB(t)
	_, base := newTestServer(t, db, server.Config{SnapshotTTL: 30 * time.Millisecond})
	_, body := postJSON(t, base+"/v1/snapshots", struct{}{})
	var snap server.SnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	// Poll the (non-touching) list endpoint: every *use* of a pin slides its
	// TTL deadline, so an exec poll would keep it alive forever by design.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(base + "/v1/snapshots")
		if err != nil {
			t.Fatal(err)
		}
		var listed []server.SnapshotResponse
		if err := json.NewDecoder(r.Body).Decode(&listed); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if len(listed) == 0 {
			break // janitor reclaimed the abandoned pin
		}
		if time.Now().After(deadline) {
			t.Fatalf("pin still alive long after TTL: %+v", listed)
		}
		time.Sleep(20 * time.Millisecond)
	}
	env := ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0), Snapshot: &snap.ID}
	resp, body := postJSON(t, base+"/v1/exec", env)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("exec on expired pin: status %d (%s), want 410", resp.StatusCode, body)
	}
}

// TestExecErrors checks the error → status mapping.
func TestExecErrors(t *testing.T) {
	db := testDB(t)
	_, base := newTestServer(t, db, server.Config{})
	bad := uint64(999)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown kind", ExecEnv{Kind: "Nope"}, http.StatusBadRequest},
		{"missing field", ExecEnv{Kind: "CONN"}, http.StatusBadRequest},
		{"degenerate segment", ExecEnv{Kind: "CONN", Seg: seg(5, 5, 5, 5)}, http.StatusBadRequest},
		{"bad k", ExecEnv{Kind: "COkNN", Seg: seg(0, 0, 100, 0), K: 0}, http.StatusBadRequest},
		{"unpinned version", ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0), AtVersion: &bad}, http.StatusGone},
		{"unknown snapshot", ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0), Snapshot: &bad}, http.StatusGone},
		{"unknown envelope field", map[string]any{"kind": "CONN", "sge": 1}, http.StatusBadRequest},
		// The lab's ablation block, sampling field and NaiveCONN kind are
		// not part of the wire surface.
		{"removed tuning block", map[string]any{"kind": "CONN", "seg": seg(0, 0, 100, 0),
			"tuning": map[string]bool{"disable_lemma7": true}}, http.StatusBadRequest},
		{"removed samples field", map[string]any{"kind": "CONN", "seg": seg(0, 0, 100, 0), "samples": 16}, http.StatusBadRequest},
		{"removed NaiveCONN kind", ExecEnv{Kind: "NaiveCONN", Seg: seg(0, 0, 100, 0)}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, base+"/v1/exec", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body, tc.want)
			}
			var er server.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error envelope missing: %s", body)
			}
		})
	}
}

// TestExecWorkersCapped sends a CONN envelope asking for 10⁸ intra-query
// lanes: the server caps the width at GOMAXPROCS, so the query answers
// normally, bit-identical to an in-process Exec at that width, instead of
// starting 10⁸ goroutines.
func TestExecWorkersCapped(t *testing.T) {
	db := testDB(t)
	_, base := newTestServer(t, db, server.Config{})
	wide := 100_000_000
	resp, body := postJSON(t, base+"/v1/exec", ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0), Workers: &wide})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got server.ExecResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	req := connquery.CONNRequest{Seg: connquery.Seg(connquery.Pt(0, 0), connquery.Pt(100, 0))}
	assertBitIdentical(t, db, req, &got, connquery.WithWorkers(runtime.GOMAXPROCS(0)))
}

// TestExecTimeout checks a tight timeout_ms aborts a heavy query with 504.
func TestExecTimeout(t *testing.T) {
	w := bench.BuildWorkload("CL", 0.02, 1, 2009)
	db, err := connquery.Open(w.Points, w.Obstacles)
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, db, server.Config{})
	env := ExecEnv{Kind: "COkNN", Seg: seg(100, 100, 9900, 9900), K: 16, TimeoutMS: 1}
	resp, body := postJSON(t, base+"/v1/exec", env)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestStatsEndpoint checks the counters move.
func TestStatsEndpoint(t *testing.T) {
	db := testDB(t)
	_, base := newTestServer(t, db, server.Config{})
	postJSON(t, base+"/v1/exec", ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0)})
	postJSON(t, base+"/v1/exec", ExecEnv{Kind: "CONN"}) // error
	postJSON(t, base+"/v1/points", map[string]any{"p": map[string]float64{"x": 1, "y": 1}})

	r, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Execs != 1 || st.ExecErrors != 1 || st.Mutations != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.ExecsByKind["CONN"] != 1 {
		t.Fatalf("by-kind: %+v", st.ExecsByKind)
	}
	if st.Points != 4 || st.Obstacles != 2 || st.Epoch != db.Version() {
		t.Fatalf("shape: %+v", st)
	}
	if st.NPETotal == 0 || st.SVGPeak == 0 {
		t.Fatalf("paper metrics not surfaced: %+v", st)
	}
}

// TestCloseEndsWatchStreams checks Server.Close terminates live streams so
// a surrounding http.Server.Shutdown can complete.
func TestCloseEndsWatchStreams(t *testing.T) {
	db := testDB(t)
	s, base := newTestServer(t, db, server.Config{})
	env := ExecEnv{Kind: "CONN", Seg: seg(0, 0, 100, 0)}
	raw, _ := json.Marshal(env)
	resp, err := http.Post(base+"/v1/watch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil { // first update arrived; stream is live
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Fatal("stream still delivering after Close")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}
