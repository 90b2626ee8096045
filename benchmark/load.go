package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"connquery/internal/geom"
	"connquery/server"
)

// The benchmark's two client connections are fixed: it is sized for a 2-vCPU
// box, where the server and the generator share the cores. More connections
// would measure the scheduler.
const clients = 2

// oneConn returns an HTTP client that owns exactly one keep-alive connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// readSample is one response kept for the answer oracle.
type readSample struct {
	req  int // index into the request list
	body []byte
}

// writeSample is one unary write of the hot read phase, in commit order.
type writeSample struct {
	insert bool
	p      geom.Point // inserted position
	pid    int32      // assigned (insert) or removed (delete) PID
	epoch  uint64
}

// readResult is what the closed-loop read phase measured.
type readResult struct {
	latencies []float64 // ms, every completed /v1/exec
	elapsed   time.Duration
	bytes     int64
	failed    int
	failures  []string // first few, for the report
	samples   []readSample
	writes    []writeSample
	writeLat  []float64 // ms, unary writes
}

func (r *readResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// readPlan is the read phase's fixed request sequence: request i of the
// phase is bodies[order[i]] (order nil = bodies in turn). Client c issues
// requests c, c+clients, ...; with writeEvery > 0 client 0 replaces every
// writeEvery-th of its operations by a unary write, inserting writes[j] and
// deleting it again with the next write.
type readPlan struct {
	bodies     [][]byte
	order      []int32
	start      int // index of the phase's first request in the sequence
	writeEvery int
	writes     []geom.Point
	sampleEach int // keep every sampleEach-th response for the oracle
}

func (p *readPlan) request(i int) int {
	i += p.start
	if p.order != nil {
		return int(p.order[i%len(p.order)])
	}
	return i % len(p.bodies)
}

// runReads drives the plan closed-loop over nclients connections: each
// client sends its next request when the previous answer has been read in
// full. The phase ends after d, or, when limit > 0, after the first limit
// requests of the sequence.
func runReads(base string, plan *readPlan, nclients int, d time.Duration, limit int) *readResult {
	results := make([]*readResult, nclients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	if limit > 0 {
		deadline = start.Add(time.Hour)
	} else {
		limit = 1 << 62
	}
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = readClient(base, plan, c, nclients, deadline, limit)
		}(c)
	}
	wg.Wait()
	total := &readResult{elapsed: time.Since(start)}
	for _, r := range results {
		total.latencies = append(total.latencies, r.latencies...)
		total.bytes += r.bytes
		total.failed += r.failed
		total.failures = append(total.failures, r.failures...)
		total.samples = append(total.samples, r.samples...)
		total.writes = append(total.writes, r.writes...)
		total.writeLat = append(total.writeLat, r.writeLat...)
	}
	return total
}

func readClient(base string, plan *readPlan, c, nclients int, deadline time.Time, limit int) *readResult {
	hc := oneConn()
	defer hc.CloseIdleConnections()
	res := &readResult{}
	var buf bytes.Buffer
	var livePID int32 = -1 // the point the next write deletes
	nextWrite := 0
	for op, i := 0, c; i < limit && time.Now().Before(deadline); op, i = op+1, i+nclients {
		if plan.writeEvery > 0 && c == 0 && op%plan.writeEvery == plan.writeEvery-1 {
			t0 := time.Now()
			w, err := unaryWrite(hc, base, plan.writes[nextWrite%len(plan.writes)], livePID)
			if err != nil {
				res.fail("unary write: %v", err)
				continue
			}
			res.writeLat = append(res.writeLat, ms(time.Since(t0)))
			res.writes = append(res.writes, w)
			if w.insert {
				livePID = w.pid
				nextWrite++
			} else {
				livePID = -1
			}
			continue
		}
		ri := plan.request(i)
		t0 := time.Now()
		resp, err := hc.Post(base+"/v1/exec", "application/json", bytes.NewReader(plan.bodies[ri]))
		if err != nil {
			res.fail("exec: %v", err)
			continue
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		res.latencies = append(res.latencies, ms(time.Since(t0)))
		if err != nil || resp.StatusCode != http.StatusOK {
			res.fail("exec request %d: status %d, read error %v: %.200s", ri, resp.StatusCode, err, buf.Bytes())
			continue
		}
		res.bytes += int64(buf.Len())
		if op%plan.sampleEach == 0 {
			res.samples = append(res.samples, readSample{req: ri, body: bytes.Clone(buf.Bytes())})
		}
	}
	return res
}

// unaryWrite deletes livePID when one is live, else inserts p.
func unaryWrite(hc *http.Client, base string, p geom.Point, livePID int32) (writeSample, error) {
	var req *http.Request
	var err error
	if livePID >= 0 {
		req, err = http.NewRequest(http.MethodDelete, base+"/v1/points/"+strconv.Itoa(int(livePID)), nil)
	} else {
		body := mustJSON(struct {
			P *server.Point `json:"p"`
		}{wirePt(p)})
		req, err = http.NewRequest(http.MethodPost, base+"/v1/points", bytes.NewReader(body))
	}
	if err != nil {
		return writeSample{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return writeSample{}, err
	}
	defer resp.Body.Close()
	var mr server.MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return writeSample{}, err
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		return writeSample{}, fmt.Errorf("status %d", resp.StatusCode)
	case livePID >= 0 && (mr.Deleted == nil || !*mr.Deleted):
		return writeSample{}, fmt.Errorf("delete of point %d not confirmed", livePID)
	case livePID >= 0:
		return writeSample{pid: livePID, epoch: mr.Epoch}, nil
	case mr.PID == nil:
		return writeSample{}, fmt.Errorf("insert returned no pid")
	}
	return writeSample{insert: true, p: p, pid: *mr.PID, epoch: mr.Epoch}, nil
}

// ---------------------------------------------------------------------------
// The feed: one /v1/stream ingest connection and one /v1/watch connection.

// tickMS and maxBatch are the feed's batching parameters. A watch delivers at
// most one update per tick, and at 1 000 lines/s a 4 ms window plus the ~2.6 ms
// a tick takes to commit makes ~150 ticks per second: what lets a watch-lag
// p99 rest on 1 000 samples within the share of the driver's time cap a
// read-centred workload can spare.
const (
	tickMS   = 4
	maxBatch = 256
	feedRate = 1000 // paced lines per second
)

// tickRec is one acknowledged tick.
type tickRec struct {
	epoch    uint64
	lastLine int       // index of the tick's last line
	lastDue  time.Time // when that line was due (paced) or sent (burst)
}

// watchRec is one watch update as read off the wire.
type watchRec struct {
	epoch uint64
	at    time.Time
	body  []byte // kept for every sampleEach-th update only
}

// outLine is one line about to be sent: its bytes, the vehicle it moves (or
// inserts) and when it was due.
type outLine struct {
	body    []byte
	vehicle int
	p       geom.Point // where the line puts the vehicle
	pid     int32      // the PID a move names; for an insert, the PID it was assigned
	due     time.Time
}

// stream is an open /v1/stream ingest on a raw connection: the harness
// writes chunked NDJSON lines at the times it chooses and reads tick lines
// as they come, which net/http's client does not promise for a request whose
// body is still open.
type stream struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	sent   []outLine   // bodies dropped once written
	ackAt  []time.Time // per acknowledged line
	pids   []int32     // current PID per vehicle
	ticks  []tickRec
	failed []string
	closed bool
}

// openStream sends the request head and the first line (the server answers
// 200 only once it has parsed one), and starts the ack reader. pids is the
// PID each vehicle holds going in; the stream owns it from here on.
func openStream(base string, pids []int32, first outLine) (*stream, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		return nil, err
	}
	s := &stream{conn: conn, pids: pids}
	s.cond = sync.NewCond(&s.mu)
	head := fmt.Sprintf("POST /v1/stream?tick_ms=%d&max_batch=%d HTTP/1.1\r\nHost: %s\r\n"+
		"Content-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", tickMS, maxBatch, u.Host)
	if _, err := conn.Write([]byte(head)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := s.send(first); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		conn.Close()
		return nil, fmt.Errorf("/v1/stream: status %d: %s", resp.StatusCode, b)
	}
	go s.readAcks(bufio.NewReaderSize(resp.Body, 1<<16))
	return s, nil
}

// send writes the lines as one chunk each, in a single Write.
func (s *stream) send(lines ...outLine) error {
	var out []byte
	for _, l := range lines {
		out = strconv.AppendInt(out, int64(len(l.body)+1), 16)
		out = append(out, "\r\n"...)
		out = append(out, l.body...)
		out = append(out, "\n\r\n"...)
	}
	s.mu.Lock()
	for _, l := range lines {
		l.body = nil
		s.sent = append(s.sent, l)
	}
	s.mu.Unlock()
	_, err := s.conn.Write(out)
	return err
}

// readAcks consumes tick lines until the response ends. Results arrive in
// input order, so the k-th result overall belongs to line k.
func (s *stream) readAcks(acks *bufio.Reader) {
	for {
		line, err := acks.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			now := time.Now()
			var tk server.StreamTick
			jerr := json.Unmarshal(line, &tk)
			s.mu.Lock()
			if jerr != nil || tk.Error != "" {
				s.failed = append(s.failed, fmt.Sprintf("tick line: %v %s", jerr, tk.Error))
			}
			for _, r := range tk.Results {
				i := len(s.ackAt)
				if i >= len(s.sent) {
					s.failed = append(s.failed, "more results than lines sent")
					break
				}
				if r.Error != "" {
					s.failed = append(s.failed, fmt.Sprintf("line %d: %s", i, r.Error))
				}
				s.pids[s.sent[i].vehicle] = r.ID
				s.ackAt = append(s.ackAt, now)
			}
			if n := len(s.ackAt); len(tk.Results) > 0 {
				s.ticks = append(s.ticks, tickRec{epoch: tk.Epoch, lastLine: n - 1,
					lastDue: s.sent[n-1].due})
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		}
		if err != nil {
			s.mu.Lock()
			s.closed = true
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
	}
}

// pidAfter returns the PID the vehicle holds once line `after` is
// acknowledged (after < 0: the PID it came in with). ok is false when the
// stream ended first.
func (s *stream) pidAfter(vehicle, after int) (pid int32, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ackAt) <= after && !s.closed {
		s.cond.Wait()
	}
	return s.pids[vehicle], len(s.ackAt) > after
}

// acked returns how many lines are acknowledged.
func (s *stream) acked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ackAt)
}

// finish ends the request body, waits for the server to commit what is
// pending and end the response, and releases the connection.
func (s *stream) finish() {
	_, _ = s.conn.Write([]byte("0\r\n\r\n"))
	_ = s.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	s.mu.Lock()
	for !s.closed {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.conn.Close()
}

// watch is an open /v1/watch subscription; updates are timestamped as they
// are read.
type watch struct {
	cancel func()
	done   chan struct{}

	mu      sync.Mutex
	updates []watchRec
	failed  []string
	n       atomic.Int64
}

func openWatch(base string, req *server.ExecRequest, sampleEach int) (*watch, error) {
	hc := oneConn()
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/watch", bytes.NewReader(mustJSON(req)))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("/v1/watch: status %d: %s", resp.StatusCode, b)
	}
	w := &watch{done: make(chan struct{})}
	w.cancel = func() { resp.Body.Close(); hc.CloseIdleConnections() }
	go func() {
		defer close(w.done)
		br := bufio.NewReaderSize(resp.Body, 1<<16)
		for k := 0; ; k++ {
			line, err := br.ReadBytes('\n')
			if len(bytes.TrimSpace(line)) > 0 {
				at := time.Now()
				var head struct {
					Epoch uint64 `json:"epoch"`
					Error string `json:"error"`
				}
				jerr := json.Unmarshal(line, &head)
				w.mu.Lock()
				if jerr != nil || head.Error != "" {
					w.failed = append(w.failed, fmt.Sprintf("watch update: %v %s", jerr, head.Error))
				}
				rec := watchRec{epoch: head.Epoch, at: at}
				if k%sampleEach == 0 {
					rec.body = bytes.Clone(line)
				}
				w.updates = append(w.updates, rec)
				w.mu.Unlock()
				w.n.Add(1)
			}
			if err != nil {
				return
			}
		}
	}()
	return w, nil
}

func (w *watch) close() {
	w.cancel()
	<-w.done
}

// moveLine renders one move-point line.
func moveLine(pid int32, p geom.Point) []byte {
	return fmt.Appendf(nil, `{"op":"move-point","id":%d,"p":{"x":%s,"y":%s}}`, pid,
		strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64))
}

// insertLine renders one tracked insert-point line.
func insertLine(p geom.Point, speed float64) []byte {
	return fmt.Appendf(nil, `{"op":"insert-point","p":{"x":%s,"y":%s},"speed":%g}`,
		strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64), speed)
}
