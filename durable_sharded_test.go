package connquery

// One durable format for both backends: a sharded data directory holds
// exactly the files a single-node one holds — one record per committed
// primitive in one WAL, CONNQv2 checkpoints — so it reopens under any shard
// count or as a single node, and WithSyncAck means the same on both.

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// twinFor starts a durableTwin over the seeded world with every initial
// object alive.
func twinFor(gen *diffWorkload, dur, mem Database, pts []Point, obs []Rect) *durableTwin {
	dt := &durableTwin{gen: gen, dur: dur, mem: mem}
	for i := range pts {
		dt.alivePts = append(dt.alivePts, int32(i))
	}
	for i := range obs {
		dt.aliveObs = append(dt.aliveObs, int32(i))
	}
	return dt
}

// copyDir copies the regular files of src into a fresh directory, so one
// hard-stopped state can be reopened several times.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range dirImage(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestShardedSyncAckDurable pins WithSyncAck on the router: under group
// commit with an effectively infinite window, an acknowledged InsertPoint,
// an acknowledged DeleteObstacle and an Apply tick holding a MutMovePoint
// each return with the log already fsynced. Without the option the same
// calls leave the log dirty, so the check is not vacuous.
func TestShardedSyncAckDurable(t *testing.T) {
	_, pts, obs := durableWorld(31)
	for _, ack := range []bool{true, false} {
		dir := t.TempDir()
		opts := []Option{WithBootstrapData(pts, obs), WithGroupCommit(time.Hour), WithCheckpointEvery(-1)}
		if ack {
			opts = append(opts, WithSyncAck())
		}
		s, err := OpenDurableSharded(dir, 4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		steps := []struct {
			name string
			do   func() error
		}{
			{"InsertPoint", func() error {
				_, err := s.InsertPoint(Pt(-50, -50)) // outside the world: inside no obstacle
				return err
			}},
			{"DeleteObstacle", func() error {
				if !s.DeleteObstacle(0) {
					return errors.New("refused")
				}
				return nil
			}},
			{"Apply(MutMovePoint)", func() error {
				res, err := s.Apply([]Mutation{{Op: MutMovePoint, ID: 1, P: Pt(-55, -55)}})
				if err != nil {
					return err
				}
				return res.Results[0].Err
			}},
		}
		dirty := false
		for _, st := range steps {
			if err := st.do(); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if s.dur.w.Dirty() {
				if ack {
					t.Fatalf("%s acknowledged with the log still dirty under WithSyncAck", st.name)
				}
				dirty = true
			}
		}
		if !ack {
			if !dirty {
				t.Fatal("group commit without WithSyncAck never left the log dirty")
			}
			continue
		}
		// Hard stop: the hour-long window never fired, so the per-ack
		// fsyncs alone carried every acknowledged mutation.
		re, err := OpenDurableSharded(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if re.Version() != s.Version() {
			t.Fatalf("acked recovery at revision %d, handle was at %d", re.Version(), s.Version())
		}
		re.Close()
	}
}

// TestDurableReopenAnyTopology writes one mutation history through a
// 4-shard durable router, hard-stops it, and reopens copies of the
// directory as a single node and under 1 and 9 shards: each must be the
// in-memory twin on payload, epoch, NPE/NOE/|SVG| and Reach, and keep
// assigning the twin's IDs. The reverse holds too: a single-node
// directory opens under 4 shards.
func TestDurableReopenAnyTopology(t *testing.T) {
	gen, pts, obs := durableWorld(32)
	dir := t.TempDir()
	dur, err := OpenDurableSharded(dir, 4, WithBootstrapData(pts, obs), WithCheckpointEvery(13), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(pts, obs, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	dt := twinFor(gen, dur, mem, pts, obs)
	runDurablePhase(t, dt, 200)

	reopen := []struct {
		name string
		open func(dir string) (Database, error)
	}{
		{"single node", func(dir string) (Database, error) { return OpenDurable(dir, WithAnswerCache(8<<20)) }},
		{"1 shard", func(dir string) (Database, error) { return OpenDurableSharded(dir, 1, WithAnswerCache(8<<20)) }},
		{"9 shards", func(dir string) (Database, error) { return OpenDurableSharded(dir, 9, WithAnswerCache(8<<20)) }},
	}
	for i, ro := range reopen {
		re, err := ro.open(copyDir(t, dir))
		if err != nil {
			t.Fatalf("%s: %v", ro.name, err)
		}
		compareBattery(t, re, mem, int64(560+i), 60)
	}

	// Keep going on the 9-shard reopen: same IDs, same answers.
	re, err := OpenDurableSharded(dir, 9, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	dt.dur = re
	runDurablePhase(t, dt, 80)
	compareBattery(t, re, mem, 563, 40)

	// And back: the 9-shard history, hard-stopped, as a single node.
	back, err := OpenDurable(copyDir(t, dir), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	compareBattery(t, back, mem, 564, 40)

	// A single-node directory opens under 4 shards.
	gen2, pts2, obs2 := durableWorld(34)
	sdir := t.TempDir()
	single, err := OpenDurable(sdir, WithBootstrapData(pts2, obs2), WithCheckpointEvery(11), WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	mem2, err := Open(pts2, obs2, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	runDurablePhase(t, twinFor(gen2, single, mem2, pts2, obs2), 150)
	sharded, err := OpenDurableSharded(sdir, 4, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	compareBattery(t, sharded, mem2, 565, 60)
}

// TestShardedDurableOneLog pins the sharded directory to the single-node
// one: with checkpoints off, a durable router and a durable single node fed
// the same unary history — obstacles replicated onto several shards among
// it — hold byte-identical directories of ckpt-%016x files and WAL
// segments only, and recovery replays one record per committed primitive.
// A reopen of a just-bootstrapped directory builds the grid a fresh
// OpenSharded builds.
func TestShardedDurableOneLog(t *testing.T) {
	gen, pts, obs := durableWorld(33)
	sdir, ndir := t.TempDir(), t.TempDir()
	s, err := OpenDurableSharded(sdir, 4, WithBootstrapData(pts, obs), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	single, err := OpenDurable(ndir, WithBootstrapData(pts, obs), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh router and the reopened bootstrap directory: one grid.
	fresh, err := OpenSharded(pts, obs, 4)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := OpenDurableSharded(copyDir(t, sdir), 4)
	if err != nil {
		t.Fatal(err)
	}
	fs, bs := fresh.ShardStats(), boot.ShardStats()
	if fs.Cols != bs.Cols || fs.Rows != bs.Rows || len(fs.PerShard) != len(bs.PerShard) {
		t.Fatalf("grid %dx%d fresh, %dx%d reopened", fs.Cols, fs.Rows, bs.Cols, bs.Rows)
	}
	for i := range fs.PerShard {
		if fs.PerShard[i].Points != bs.PerShard[i].Points {
			t.Fatalf("shard %d: %d points fresh, %d reopened", i, fs.PerShard[i].Points, bs.PerShard[i].Points)
		}
	}

	dt := twinFor(gen, s, single, pts, obs)
	for i := 0; i < 120; i++ {
		dt.mutate(t)
	}
	// A strip below the world holds no point and crosses every column of
	// the grid, so it lands on several shards.
	wide := R(-20, -20, 120, -10)
	var gid int32 = -1
	for _, db := range []Database{s, single} {
		id, err := db.InsertObstacle(wide)
		if err != nil {
			t.Fatal(err)
		}
		if gid >= 0 && id != gid {
			t.Fatalf("wide obstacle: OID %d sharded, %d single", gid, id)
		}
		gid = id
	}
	if n := len(s.o2s[gid].reps); n < 2 {
		t.Fatalf("wide obstacle has %d replicas, want several", n)
	}
	for i := 0; i < 30; i++ {
		dt.mutate(t)
	}
	if !s.DeleteObstacle(gid) || !single.DeleteObstacle(gid) {
		t.Fatal("deleting the wide obstacle failed")
	}

	sImg, nImg := dirImage(t, sdir), dirImage(t, ndir)
	durFile := regexp.MustCompile(`^(ckpt-[0-9a-f]{16}|wal-[0-9a-f]{16}\.log)$`)
	for name := range sImg {
		if !durFile.MatchString(name) {
			t.Errorf("sharded directory holds %q, which a single-node directory never does", name)
		}
	}
	if len(sImg) != len(nImg) {
		t.Fatalf("sharded directory holds %d files, single-node %d", len(sImg), len(nImg))
	}
	for name, data := range nImg {
		if sImg[name] != data {
			t.Fatalf("%s differs between the sharded and the single-node directory", name)
		}
	}

	// Hard stop and reopen: one replayed record per committed primitive.
	re, err := OpenDurableSharded(sdir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rs := re.RecoveryStats(); rs.WALRecords != int(re.Version())-1 {
		t.Fatalf("replayed %d WAL records to revision %d, want %d", rs.WALRecords, re.Version(), re.Version()-1)
	}
	compareBattery(t, re, single, 570, 40)
}
