package connquery

// The crash-recovery differential harness: a durable instance (single-node
// or sharded) and an in-memory twin receive the identical randomized
// mutation stream with interleaved query comparisons; the durable instance
// is then hard-stopped — the handle is abandoned without Close, exactly a
// kill -9 — and reopened from its directory. The recovered instance must be
// at the twin's version and answer every request bit-identically: payload,
// epoch, and the machine-independent NPE/NOE/|SVG|/Reach metrics. Torn-tail
// variants physically truncate the newest log segment (the only tail a real
// crash can tear) and prove the recovered instance equals an in-memory
// replay of the exact mutation prefix it reports.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"connquery/internal/wal"
)

// recMut is one recorded mutation, replayable onto a fresh instance.
type recMut struct {
	op uint8 // recInsPt..recDelObs
	p  Point
	r  Rect
	id int32 // assigned (inserts) or targeted (deletes) global ID
}

const (
	recInsPt uint8 = iota + 1
	recDelPt
	recInsObs
	recDelObs
)

// durableWorld draws the same seeded initial dataset newDiffWorkload uses,
// without opening a DB (the durable constructors own that).
func durableWorld(seed int64) (*diffWorkload, []Point, []Rect) {
	w := &diffWorkload{rng: rand.New(rand.NewSource(seed))}
	points := make([]Point, 16)
	for i := range points {
		points[i] = w.pt()
	}
	var obstacles []Rect
	for len(obstacles) < 8 {
		lo := w.pt()
		r := R(lo.X, lo.Y, lo.X+0.5+w.rng.Float64()*6, lo.Y+0.5+w.rng.Float64()*6)
		keep := true
		for _, p := range points {
			if r.ContainsOpen(p) {
				keep = false
				break
			}
		}
		if keep {
			obstacles = append(obstacles, r)
		}
	}
	return w, points, obstacles
}

// durableTwin drives a durable instance and its in-memory twin in lockstep,
// recording every successful mutation for prefix replay.
type durableTwin struct {
	gen      *diffWorkload
	dur      Database
	mem      Database
	muts     []recMut
	alivePts []int32
	aliveObs []int32
}

// mutate applies one identical random mutation to both instances, asserts
// the outcomes agree, and records it.
func (dt *durableTwin) mutate(t *testing.T) {
	t.Helper()
	w := dt.gen
	switch w.rng.Intn(4) {
	case 0:
		p := w.pt()
		id1, err1 := dt.mem.InsertPoint(p)
		id2, err2 := dt.dur.InsertPoint(p)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && id1 != id2) {
			t.Fatalf("InsertPoint(%v): mem (%d,%v) vs durable (%d,%v)", p, id1, err1, id2, err2)
		}
		if err1 == nil {
			dt.alivePts = append(dt.alivePts, id1)
			dt.muts = append(dt.muts, recMut{op: recInsPt, p: p, id: id1})
		}
	case 1:
		lo := w.pt()
		r := R(lo.X, lo.Y, lo.X+0.5+w.rng.Float64()*6, lo.Y+0.5+w.rng.Float64()*6)
		id1, err1 := dt.mem.InsertObstacle(r)
		id2, err2 := dt.dur.InsertObstacle(r)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && id1 != id2) {
			t.Fatalf("InsertObstacle(%v): mem (%d,%v) vs durable (%d,%v)", r, id1, err1, id2, err2)
		}
		if err1 == nil {
			dt.aliveObs = append(dt.aliveObs, id1)
			dt.muts = append(dt.muts, recMut{op: recInsObs, r: r, id: id1})
		}
	case 2:
		if len(dt.alivePts) > 1 {
			i := w.rng.Intn(len(dt.alivePts))
			pid := dt.alivePts[i]
			ok1 := dt.mem.DeletePoint(pid)
			ok2 := dt.dur.DeletePoint(pid)
			if !ok1 || !ok2 {
				t.Fatalf("DeletePoint(%d): mem %v, durable %v", pid, ok1, ok2)
			}
			dt.alivePts = append(dt.alivePts[:i], dt.alivePts[i+1:]...)
			dt.muts = append(dt.muts, recMut{op: recDelPt, id: pid})
		}
	default:
		if len(dt.aliveObs) > 0 {
			i := w.rng.Intn(len(dt.aliveObs))
			oid := dt.aliveObs[i]
			ok1 := dt.mem.DeleteObstacle(oid)
			ok2 := dt.dur.DeleteObstacle(oid)
			if !ok1 || !ok2 {
				t.Fatalf("DeleteObstacle(%d): mem %v, durable %v", oid, ok1, ok2)
			}
			dt.aliveObs = append(dt.aliveObs[:i], dt.aliveObs[i+1:]...)
			dt.muts = append(dt.muts, recMut{op: recDelObs, id: oid})
		}
	}
	if v1, v2 := dt.mem.Version(), dt.dur.Version(); v1 != v2 {
		t.Fatalf("version skew after mutation: mem %d, durable %d", v1, v2)
	}
}

// compareBattery executes n fresh random requests on both instances and
// requires bit-identical answers (or identical refusal).
func compareBattery(t *testing.T, got, want Database, seed int64, n int) {
	t.Helper()
	if v1, v2 := got.Version(), want.Version(); v1 != v2 {
		t.Fatalf("version skew: got %d, want %d", v1, v2)
	}
	if n1, n2 := got.NumPoints(), want.NumPoints(); n1 != n2 {
		t.Fatalf("point count skew: got %d, want %d", n1, n2)
	}
	if n1, n2 := got.NumObstacles(), want.NumObstacles(); n1 != n2 {
		t.Fatalf("obstacle count skew: got %d, want %d", n1, n2)
	}
	w := &diffWorkload{rng: rand.New(rand.NewSource(seed))}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		req := w.newRequest()
		a1, err1 := want.Exec(ctx, req)
		a2, err2 := got.Exec(ctx, req)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: want err=%v, got err=%v", req.Kind(), err1, err2)
		}
		if err1 != nil {
			continue
		}
		checkTwinAnswers(t, req, a2, a1)
	}
}

// replayPrefix rebuilds an in-memory single-node reference at the state
// reached by the first k recorded mutations.
func replayPrefix(t *testing.T, points []Point, obstacles []Rect, muts []recMut, k int) *DB {
	t.Helper()
	db, err := Open(points, obstacles, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		m := muts[i]
		switch m.op {
		case recInsPt:
			id, err := db.InsertPoint(m.p)
			if err != nil || id != m.id {
				t.Fatalf("replay mut %d: InsertPoint gave (%d,%v), recorded %d", i, id, err, m.id)
			}
		case recDelPt:
			if !db.DeletePoint(m.id) {
				t.Fatalf("replay mut %d: DeletePoint(%d) failed", i, m.id)
			}
		case recInsObs:
			id, err := db.InsertObstacle(m.r)
			if err != nil || id != m.id {
				t.Fatalf("replay mut %d: InsertObstacle gave (%d,%v), recorded %d", i, id, err, m.id)
			}
		case recDelObs:
			if !db.DeleteObstacle(m.id) {
				t.Fatalf("replay mut %d: DeleteObstacle(%d) failed", i, m.id)
			}
		}
	}
	return db
}

// runDurablePhase interleaves mutations and durable-vs-twin query
// comparisons, returning after ops steps.
func runDurablePhase(t *testing.T, dt *durableTwin, ops int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		if dt.gen.rng.Float64() < 0.5 {
			dt.mutate(t)
			continue
		}
		req := dt.gen.request()
		a1, err1 := dt.mem.Exec(ctx, req)
		a2, err2 := dt.dur.Exec(ctx, req)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: mem err=%v, durable err=%v", req.Kind(), err1, err2)
		}
		if err1 == nil {
			checkTwinAnswers(t, req, a2, a1)
		}
	}
}

// chopNewestSegment truncates the newest WAL segment in dir by n bytes,
// simulating the torn tail a crash mid-write leaves behind.
func chopNewestSegment(t *testing.T, dir string, n int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= n {
		t.Fatalf("newest segment %s has only %d bytes, cannot chop %d", last, fi.Size(), n)
	}
	if err := os.Truncate(last, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashRecoverySingle is the single-node hard-stop differential:
// strict WAL mode with automatic checkpoints, abandon without Close, reopen,
// and the recovered instance must be the twin — then keep mutating both and
// stay the twin.
func TestDurableCrashRecoverySingle(t *testing.T) {
	dir := t.TempDir()
	gen, pts, obs := durableWorld(21)
	dur, err := OpenDurable(dir, WithBootstrapData(pts, obs), WithCheckpointEvery(7), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(pts, obs, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	dt := &durableTwin{gen: gen, dur: dur, mem: mem}
	for i := range pts {
		dt.alivePts = append(dt.alivePts, int32(i))
	}
	for i := range obs {
		dt.aliveObs = append(dt.aliveObs, int32(i))
	}
	runDurablePhase(t, dt, 300)

	// Hard stop: no Close, no checkpoint — the strict WAL alone must carry
	// the recovered instance to the exact pre-crash epoch.
	if !HasDurableState(dir) {
		t.Fatal("HasDurableState is false on a populated directory")
	}
	re, err := OpenDurable(dir, WithCheckpointEvery(7), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	rs := re.RecoveryStats()
	if rs.Epoch != mem.Version() {
		t.Fatalf("recovered to epoch %d, twin is at %d", rs.Epoch, mem.Version())
	}
	if rs.CheckpointBytes == 0 {
		t.Fatal("recovery reports zero checkpoint bytes")
	}
	t.Logf("recovery stats: %+v", rs)
	compareBattery(t, re, mem, 500, 60)

	// The recovered instance must keep assigning the same IDs and answering
	// identically under further mutations.
	dt.dur = re
	runDurablePhase(t, dt, 120)
	compareBattery(t, re, mem, 501, 40)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after the clean close too.
	re2, err := OpenDurable(dir, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	if rs := re2.RecoveryStats(); rs.WALRecords != 0 {
		t.Fatalf("clean close should leave an empty log, replayed %d records", rs.WALRecords)
	}
	compareBattery(t, re2, mem, 502, 40)
	re2.Close()
}

// TestDurableCrashRecoveryTornTailSingle tears the newest WAL segment after
// the hard stop: recovery must land on the exact mutation prefix the
// surviving log encodes, proven by differential comparison against an
// in-memory replay of that prefix.
func TestDurableCrashRecoveryTornTailSingle(t *testing.T) {
	dir := t.TempDir()
	gen, pts, obs := durableWorld(22)
	dur, err := OpenDurable(dir, WithBootstrapData(pts, obs), WithCheckpointEvery(-1), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(pts, obs, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	dt := &durableTwin{gen: gen, dur: dur, mem: mem}
	for i := range pts {
		dt.alivePts = append(dt.alivePts, int32(i))
	}
	for i := range obs {
		dt.aliveObs = append(dt.aliveObs, int32(i))
	}
	for i := 0; i < 80; i++ {
		dt.mutate(t)
	}

	chopNewestSegment(t, dir, 100)
	re, err := OpenDurable(dir, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	e := re.Version()
	if e >= mem.Version() || e < 1 {
		t.Fatalf("torn recovery at epoch %d, twin at %d", e, mem.Version())
	}
	// Epoch e = 1 (the opened world) + the first e-1 recorded mutations.
	ref := replayPrefix(t, pts, obs, dt.muts, int(e)-1)
	compareBattery(t, re, ref, 510, 60)
	t.Logf("torn recovery stats: %+v (twin at %d)", re.RecoveryStats(), mem.Version())
	re.Close()
}

// TestDurableCrashRecoverySharded is the sharded hard-stop differential on a
// 2x2 grid with automatic router checkpoints: the recovered ShardedDB must
// be bit-identical to an in-memory single-node twin — the strongest
// equivalence the repo states, across both the sharding and the durability
// layers at once.
func TestDurableCrashRecoverySharded(t *testing.T) {
	dir := t.TempDir()
	gen, pts, obs := durableWorld(23)
	dur, err := OpenDurableSharded(dir, 4, WithBootstrapData(pts, obs), WithCheckpointEvery(7), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(pts, obs, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	dt := &durableTwin{gen: gen, dur: dur, mem: mem}
	for i := range pts {
		dt.alivePts = append(dt.alivePts, int32(i))
	}
	for i := range obs {
		dt.aliveObs = append(dt.aliveObs, int32(i))
	}
	runDurablePhase(t, dt, 300)

	if !HasDurableState(dir) {
		t.Fatal("HasDurableState is false on a populated sharded directory")
	}
	re, err := OpenDurableSharded(dir, 4, WithCheckpointEvery(7), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	rs := re.RecoveryStats()
	if rs.Epoch != mem.Version() {
		t.Fatalf("recovered to revision %d, twin is at %d", rs.Epoch, mem.Version())
	}
	t.Logf("sharded recovery stats: %+v", rs)
	compareBattery(t, re, mem, 520, 60)

	dt.dur = re
	runDurablePhase(t, dt, 120)
	compareBattery(t, re, mem, 521, 40)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re2, err := OpenDurableSharded(dir, 4, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	if rs := re2.RecoveryStats(); rs.WALRecords != 0 {
		t.Fatalf("clean close should leave empty logs, replayed %d records", rs.WALRecords)
	}
	compareBattery(t, re2, mem, 522, 40)
	re2.Close()
}

// TestDurableCrashRecoveryShardedTornSeq tears the router's log: recovery
// must land on a strict prefix of the revision stream, equal to an
// in-memory replay of exactly that many mutations.
func TestDurableCrashRecoveryShardedTornSeq(t *testing.T) {
	dir := t.TempDir()
	gen, pts, obs := durableWorld(24)
	dur, err := OpenDurableSharded(dir, 4, WithBootstrapData(pts, obs), WithCheckpointEvery(-1), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(pts, obs, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	dt := &durableTwin{gen: gen, dur: dur, mem: mem}
	for i := range pts {
		dt.alivePts = append(dt.alivePts, int32(i))
	}
	for i := range obs {
		dt.aliveObs = append(dt.aliveObs, int32(i))
	}
	for i := 0; i < 80; i++ {
		dt.mutate(t)
	}

	chopNewestSegment(t, dir, 100)
	re, err := OpenDurableSharded(dir, 4, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	r := re.Version()
	if r >= mem.Version() || r < 1 {
		t.Fatalf("torn recovery at revision %d, twin at %d", r, mem.Version())
	}
	ref := replayPrefix(t, pts, obs, dt.muts, int(r)-1)
	compareBattery(t, re, ref, 530, 60)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// The close checkpointed the recovered cut; a further reopen must
	// land on the identical state.
	re2, err := OpenDurableSharded(dir, 4, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	compareBattery(t, re2, ref, 531, 30)
	re2.Close()
}

// TestOpenDurableErrors pins the constructor misuse cases.
func TestOpenDurableErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDurable(dir); err == nil {
		t.Fatal("OpenDurable on an empty directory without bootstrap data succeeded")
	}
	_, pts, obs := durableWorld(25)
	db, err := OpenDurable(dir, WithBootstrapData(pts, obs))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := OpenDurable(dir, WithBootstrapData(pts, obs)); err == nil {
		t.Fatal("OpenDurable with bootstrap data on a populated directory succeeded")
	}

	sdir := t.TempDir()
	if _, err := OpenDurableSharded(sdir, 4); err == nil {
		t.Fatal("OpenDurableSharded on an empty directory without bootstrap data succeeded")
	}
	sdb, err := OpenDurableSharded(sdir, 4, WithBootstrapData(pts, obs))
	if err != nil {
		t.Fatal(err)
	}
	sdb.Close()
	re, err := OpenDurableSharded(sdir, 2)
	if err != nil {
		t.Fatalf("reopening a 4-shard store with 2 shards: %v", err)
	}
	re.Close()
	if _, err := OpenDurableSharded(sdir, 4, WithBootstrapData(pts, obs)); err == nil {
		t.Fatal("OpenDurableSharded with bootstrap data on a populated directory succeeded")
	}
}

// dirImage reads every regular file of dir, for before/after comparison.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string)
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(data)
	}
	return img
}

// TestReplayRejectsDivergentLog exercises replay's corruption checks with
// hand-written WAL tails behind a clean checkpoint: a log that cannot be the
// record of what the mutation path does — an epoch gap, an insert logged
// under another ID, a delete of a point that is not live — must fail the
// open and leave the directory exactly as found (a durable store never
// guesses, and never compacts a log it could not replay); records at or
// below the checkpoint epoch are the leftovers of a crashed compaction and
// are skipped.
func TestReplayRejectsDivergentLog(t *testing.T) {
	_, pts, obs := durableWorld(27)
	far := Pt(-50, -50) // outside the world: inside no obstacle
	nextPID := int32(len(pts))
	insPt := func(epoch uint64, id int32) wal.Record {
		return wal.Record{Op: wal.OpInsertPoint, ID: id, Epoch: epoch, Coords: [4]float64{far.X, far.Y}}
	}
	delPt := func(epoch uint64, id int32) wal.Record {
		return wal.Record{Op: wal.OpDeletePoint, ID: id, Epoch: epoch, Coords: [4]float64{pts[0].X, pts[0].Y}}
	}
	cases := []struct {
		name    string
		tail    func(ck uint64) []wal.Record // ck = the checkpoint's epoch
		applied int                          // records a successful open replays; -1 = must fail
	}{
		{"epoch gap", func(ck uint64) []wal.Record {
			return []wal.Record{insPt(ck+1, nextPID), insPt(ck+3, nextPID+1)}
		}, -1},
		{"wrong insert ID", func(ck uint64) []wal.Record {
			return []wal.Record{insPt(ck+1, nextPID), insPt(ck+2, nextPID+7)}
		}, -1},
		{"delete of a dead point", func(ck uint64) []wal.Record {
			return []wal.Record{delPt(ck+1, 0), insPt(ck+2, nextPID), delPt(ck+3, 0)}
		}, -1},
		{"duplicate prefix", func(ck uint64) []wal.Record {
			return []wal.Record{insPt(ck-1, nextPID+3), delPt(ck, 5), delPt(ck+1, 0), insPt(ck+2, nextPID)}
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenDurable(dir, WithBootstrapData(pts, obs))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.InsertObstacle(R(-30, -30, -20, -20)); err != nil { // checkpoint epoch 2
				t.Fatal(err)
			}
			ck := db.Version()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			tail := tc.tail(ck)
			w, err := wal.Create(dir, tail[0].Epoch, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.AppendBatch(tail); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			before := dirImage(t, dir)

			re, err := OpenDurable(dir)
			if tc.applied < 0 {
				if err == nil {
					t.Fatalf("OpenDurable replayed a divergent log to epoch %d", re.Version())
				}
				t.Logf("refused: %v", err)
				after := dirImage(t, dir)
				if len(after) != len(before) {
					t.Fatalf("refused open changed the directory: %d files, was %d", len(after), len(before))
				}
				for name, data := range before {
					if after[name] != data {
						t.Fatalf("refused open rewrote %s", name)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if rs := re.RecoveryStats(); rs.WALRecords != tc.applied || rs.Epoch != ck+uint64(tc.applied) {
				t.Fatalf("recovery replayed %d records to epoch %d, want %d to epoch %d", rs.WALRecords, rs.Epoch, tc.applied, ck+uint64(tc.applied))
			}
			if p, ok := re.PointByID(nextPID); !ok || p != far {
				t.Fatalf("replayed insert: PointByID(%d) = %v, %v", nextPID, p, ok)
			}
			if _, ok := re.PointByID(0); ok {
				t.Fatal("replayed delete left point 0 live")
			}
		})
	}
}

// TestDurableStickyFailure proves fail-stop: after a WAL failure the failed
// mutation does not publish, later mutations refuse, and reads keep
// serving the last published version.
func TestDurableStickyFailure(t *testing.T) {
	dir := t.TempDir()
	_, pts, obs := durableWorld(26)
	db, err := OpenDurable(dir, WithBootstrapData(pts, obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertPoint(Pt(1, 1)); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	db.dur.w.Close() // sever the log out from under the handle
	if _, err := db.InsertPoint(Pt(2, 2)); err == nil {
		t.Fatal("insert after WAL failure succeeded")
	}
	if db.Version() != v {
		t.Fatalf("failed mutation published: version %d -> %d", v, db.Version())
	}
	if db.DeletePoint(0) {
		t.Fatal("delete after WAL failure succeeded")
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint after WAL failure succeeded")
	}
	if _, err := db.Exec(context.Background(), RangeRequest{Center: Pt(1, 1), Radius: 5}); err != nil {
		t.Fatalf("read after WAL failure refused: %v", err)
	}

	// Sharded: the router's log append cannot be rolled back (shards
	// applied first), so the failing mutation itself commits in memory, then
	// the latch refuses everything after it.
	sdir := t.TempDir()
	sdb, err := OpenDurableSharded(sdir, 2, WithBootstrapData(pts, obs))
	if err != nil {
		t.Fatal(err)
	}
	sdb.dur.w.Close()
	if _, err := sdb.InsertPoint(Pt(3, 3)); err != nil {
		t.Fatalf("the latching mutation itself should commit in memory: %v", err)
	}
	if _, err := sdb.InsertPoint(Pt(4, 4)); err == nil {
		t.Fatal("insert after sequencer failure succeeded")
	}
	if sdb.DeletePoint(0) {
		t.Fatal("delete after sequencer failure succeeded")
	}
	if err := sdb.Checkpoint(); err == nil {
		t.Fatal("checkpoint after sequencer failure succeeded")
	}
}

// TestDurableGroupCommit exercises the windowed sync path end to end: the
// background syncer must land every record, and Close must flush the tail.
func TestDurableGroupCommit(t *testing.T) {
	dir := t.TempDir()
	gen, pts, obs := durableWorld(27)
	db, err := OpenDurable(dir, WithBootstrapData(pts, obs), WithGroupCommit(2*time.Millisecond), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(pts, obs)
	if err != nil {
		t.Fatal(err)
	}
	dt := &durableTwin{gen: gen, dur: db, mem: mem}
	for i := range pts {
		dt.alivePts = append(dt.alivePts, int32(i))
	}
	for i := range obs {
		dt.aliveObs = append(dt.aliveObs, int32(i))
	}
	for i := 0; i < 60; i++ {
		dt.mutate(t)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	compareBattery(t, re, mem, 540, 40)
	re.Close()
}

// TestCheckpointCodecRoundTrip pins the single-node checkpoint format: a
// live version round-trips exactly, and any single corrupted byte is
// detected by the CRC.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	_, pts, obs := durableWorld(28)
	db, err := Open(pts, obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertPoint(Pt(50, 50)); err != nil {
		t.Fatal(err)
	}
	if !db.DeletePoint(3) || !db.DeleteObstacle(2) {
		t.Fatal("setup deletes failed")
	}
	v := db.current()
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, v); err != nil {
		t.Fatal(err)
	}
	c, err := parseCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c.epoch != v.epoch || len(c.points) != len(v.points) || len(c.obstacles) != len(v.obstacles) {
		t.Fatalf("round trip lost shape: %+v vs epoch %d, %d pts, %d obs", c, v.epoch, len(v.points), len(v.obstacles))
	}
	for i, p := range v.points {
		if c.points[i] != p {
			t.Fatalf("point %d: %v != %v", i, c.points[i], p)
		}
	}
	for i, o := range v.obstacles {
		if c.obstacles[i] != o {
			t.Fatalf("obstacle %d: %v != %v", i, c.obstacles[i], o)
		}
	}
	if !c.deadPts[3] || !c.deadObs[2] || len(c.deadPts) != 1 || len(c.deadObs) != 1 {
		t.Fatalf("tombstones lost: %v / %v", c.deadPts, c.deadObs)
	}
	for off := 0; off < buf.Len(); off += 37 {
		bad := append([]byte(nil), buf.Bytes()...)
		bad[off] ^= 0x40
		if _, err := parseCheckpoint(bad); err == nil {
			t.Fatalf("corruption at byte %d went undetected", off)
		}
	}
	if _, err := parseCheckpoint(buf.Bytes()[:buf.Len()-5]); err == nil {
		t.Fatal("truncated checkpoint went undetected")
	}
}

// TestSaveFileAtomic is the regression test for the SaveFile crash-safety
// fix: the write goes through a temp file and rename, so a failing write
// leaves the previous file intact and no temp litter behind.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	_, pts, obs := durableWorld(29)
	db, err := Open(pts, obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}

	// A write that fails partway must leave the old bytes and clean up its
	// temp file.
	boom := errors.New("boom")
	err = atomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage that must never reach the real file"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected the writer's error, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("failed save clobbered the previous snapshot")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp litter left behind: %s", e.Name())
		}
	}

	// And a successful overwrite replaces the snapshot completely.
	if _, err := db.InsertPoint(Pt(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	re, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumPoints() != db.NumPoints() {
		t.Fatalf("reloaded %d points, want %d", re.NumPoints(), db.NumPoints())
	}
}

// TestDurableManualCheckpoint proves Checkpoint truncates the log: a crash
// right after it replays zero records.
func TestDurableManualCheckpoint(t *testing.T) {
	dir := t.TempDir()
	gen, pts, obs := durableWorld(30)
	db, err := OpenDurable(dir, WithBootstrapData(pts, obs), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	w := gen
	for i := 0; i < 25; i++ {
		if _, err := db.InsertPoint(w.pt()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	re, err := OpenDurable(dir) // hard stop: no Close
	if err != nil {
		t.Fatal(err)
	}
	rs := re.RecoveryStats()
	if rs.WALRecords != 0 {
		t.Fatalf("post-checkpoint recovery replayed %d records", rs.WALRecords)
	}
	if rs.Epoch != v {
		t.Fatalf("recovered to %d, want %d", rs.Epoch, v)
	}
	re.Close()
}
