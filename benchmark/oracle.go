package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"connquery"
	"connquery/server"
)

// oracle is the in-process twin: a connquery.DB opened on the generated
// dataset that replays every acknowledged mutation and re-executes sampled
// requests at the epoch the server answered them. Single-node and sharded
// servers are both held to it — the library promises them bit-identical.
type oracle struct {
	rep  *report
	twin *connquery.DB
}

func newOracle(w *world, rep *report) *oracle {
	twin, err := connquery.Open(w.points, w.obstacles, connquery.WithAnswerCache(connquery.DefaultAnswerCacheBytes))
	if err != nil {
		panic(err) // the same arrays already booted the server
	}
	return &oracle{rep: rep, twin: twin}
}

// apply commits a batch on the twin and reports members the twin rejects:
// the server acknowledged every one of them.
func (o *oracle) apply(batch []connquery.Mutation, what string) []connquery.MutationResult {
	if len(batch) == 0 {
		return nil
	}
	res, err := o.twin.Apply(batch)
	if err != nil {
		o.rep.fail(len(batch), "twin %s: %v", what, err)
		return nil
	}
	for i, r := range res.Results {
		if r.Err != nil {
			o.rep.fail(1, "twin %s member %d: %v", what, i, r.Err)
		}
	}
	return res.Results
}

// applyInserts replays the warm-up's tracked inserts and checks the PIDs.
func (o *oracle) applyInserts(f *fleet, inserts []outLine) {
	batch := make([]connquery.Mutation, len(inserts))
	for i, l := range inserts {
		batch[i] = connquery.Mutation{Op: connquery.MutInsertPoint, P: l.p, Speed: f.speed}
	}
	for i, r := range o.apply(batch, "fleet insert") {
		if r.ID != inserts[i].pid {
			o.rep.fail(1, "vehicle %d: server assigned PID %d, twin %d", i, inserts[i].pid, r.ID)
		}
	}
}

// exec runs req on the twin and returns the scrubbed wire encoding.
func (o *oracle) exec(req *server.ExecRequest) ([]byte, error) {
	lr, err := req.ToRequest()
	if err != nil {
		return nil, err
	}
	ans, err := o.twin.Exec(context.Background(), lr)
	if err != nil {
		return nil, err
	}
	return json.Marshal(scrub(server.EncodeAnswer(ans)))
}

// checkReads compares sampled /v1/exec responses to the twin at the epoch
// each was answered at, applying the phase's unary writes in commit order in
// between. Without writes the samples are checked on two goroutines.
func (o *oracle) checkReads(requests []server.ExecRequest, samples []readSample, writes []writeSample) {
	type item struct {
		s     readSample
		epoch uint64
		norm  []byte
	}
	items := make([]item, 0, len(samples))
	o.rep.attempted += len(samples)
	for _, s := range samples {
		var head struct {
			Epoch uint64 `json:"epoch"`
		}
		norm, err := normalize(s.body)
		if err != nil || json.Unmarshal(s.body, &head) != nil {
			o.rep.fail(1, "request %d: undecodable answer: %v", s.req, err)
			continue
		}
		items = append(items, item{s, head.Epoch, norm})
	}
	// check returns the mismatch, if any; the report is not safe to share.
	check := func(it item) string {
		want, err := o.exec(&requests[it.s.req])
		if err != nil || string(want) != string(it.norm) {
			return fmt.Sprintf("request %d at epoch %d: server %.300s, twin %.300s (%v)", it.s.req, it.epoch, it.norm, want, err)
		}
		return ""
	}
	if len(writes) == 0 {
		var wg sync.WaitGroup
		var mismatches [2][]string
		for g := range mismatches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(items); i += len(mismatches) {
					if m := check(items[i]); m != "" {
						mismatches[g] = append(mismatches[g], m)
					}
				}
			}()
		}
		wg.Wait()
		for _, m := range append(mismatches[0], mismatches[1]...) {
			o.rep.fail(1, "%s", m)
		}
		return
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].epoch < items[b].epoch })
	wi := 0
	for _, it := range items {
		for ; wi < len(writes) && writes[wi].epoch <= it.epoch; wi++ {
			o.applyWrite(writes[wi])
		}
		if v := o.twin.Version(); v != it.epoch {
			o.rep.fail(1, "request %d answered at epoch %d, twin is at %d", it.s.req, it.epoch, v)
			continue
		}
		if m := check(it); m != "" {
			o.rep.fail(1, "%s", m)
		}
	}
	for ; wi < len(writes); wi++ {
		o.applyWrite(writes[wi])
	}
}

func (o *oracle) applyWrite(w writeSample) {
	if !w.insert {
		if !o.twin.DeletePoint(w.pid) {
			o.rep.fail(1, "twin has no point %d to delete", w.pid)
		}
		return
	}
	if pid, err := o.twin.InsertPoint(w.p); err != nil || pid != w.pid {
		o.rep.fail(1, "insert %v: server PID %d, twin %d (%v)", w.p, w.pid, pid, err)
	}
}

// checkFeed replays the feed as primitives — a move is a delete and an
// insert, one epoch each on either topology — stopping at each sampled watch
// update's epoch to compare the delivered answer. The paced phase is always
// replayed; the burst and what follows only when a later phase reads the
// twin (whole), because DB.Apply costs the twin what it costs the server.
// Either way the server's epoch and point count after the feed must be what
// the acknowledged lines add up to.
func (o *oracle) checkFeed(f *fleet, feed *feedResult, after server.StatsResponse, whole bool) {
	prims := make([]connquery.Mutation, 0, 2*len(feed.lines))
	for _, l := range feed.lines {
		prims = append(prims,
			connquery.Mutation{Op: connquery.MutDeletePoint, ID: l.pid},
			connquery.Mutation{Op: connquery.MutInsertPoint, P: l.p, Speed: f.speed})
	}
	// A move keeps the point count, and the replay may stop between a move's
	// delete and its insert (a sharded server publishes that epoch, and a watch
	// update can show it), so the count to expect is the one before the feed.
	base, points, done := o.twin.Version(), o.twin.NumPoints(), 0
	advance := func(epoch uint64) bool {
		n := int(epoch - base)
		if epoch < base || n > len(prims) || n < done {
			return false
		}
		o.apply(prims[done:n], "feed")
		done = n
		return true
	}
	watchReq := server.ExecRequest{Kind: "CONN", Seg: wireSeg(f.watch)}
	paced := base + uint64(2*feed.pacedLines)
	for _, u := range feed.updates {
		if u.body == nil || (!whole && u.epoch > paced) {
			continue
		}
		o.rep.attempted++
		var wu server.WatchUpdate
		if err := json.Unmarshal(u.body, &wu); err != nil || wu.Answer == nil {
			o.rep.fail(1, "watch update at epoch %d: undecodable: %v", u.epoch, err)
			continue
		}
		if !advance(u.epoch) {
			o.rep.fail(1, "watch update at epoch %d is outside the acknowledged feed [%d, %d]", u.epoch, base, base+uint64(len(prims)))
			continue
		}
		got, _ := json.Marshal(scrub(wu.Answer))
		want, err := o.exec(&watchReq)
		if err != nil || string(want) != string(got) {
			o.rep.fail(1, "watch update at epoch %d: server %.300s, twin %.300s (%v)", u.epoch, got, want, err)
		}
	}
	if whole {
		advance(base + uint64(len(prims)))
	}
	o.rep.attempted++
	if v := base + uint64(len(prims)); v != after.Epoch || points != after.Points {
		o.rep.fail(1, "after the feed the server is at epoch %d with %d points, the acknowledged lines make it %d with %d", after.Epoch, after.Points, v, points)
	}
}
