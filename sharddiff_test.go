package connquery

// The sharded differential harness: a ShardedDB and a single-node DB (the
// "twin") receive the identical randomized operation sequence — all 12
// request kinds interleaved with point/obstacle insertions and deletions,
// cache-hitting re-issues, snapshot-pinned and AtVersion reads — and every
// single sharded answer must be bit-identical to the twin's: same payload,
// same epoch/revision, and the same machine-independent metrics
// (NPE/NOE/|SVG|/Reach). Mutations must agree on assigned IDs and error
// outcomes. CPU time and page-fault counts are deliberately excluded: wall
// clock is nondeterministic, and faults depend on buffer state that routing
// legitimately alters; the paper-level cost observables are the evaluated
// object counts and the VG size, which the harness pins exactly.
//
// The harness runs at two shard-map configurations: 1 shard (the router
// must be a transparent wrapper) and 4 shards in a 2x2 grid (real
// scatter-gather with border crossings and mirror maintenance).

import (
	"context"
	"errors"
	"testing"
	"time"
)

// twinWorld drives one ShardedDB and its single-node twin in lockstep. The
// lockstep mutation/exec/compare machinery lives in twinHarness
// (helpers_test.go); this wrapper keeps the concretely-typed handles the
// sharded assertions need (ShardStats, typed snapshots).
type twinWorld struct {
	*twinHarness
	single  *DB
	sharded *ShardedDB
}

func newTwinWorld(t *testing.T, seed int64, shards int) *twinWorld {
	t.Helper()
	// Reuse the cache harness's world builder for the initial dataset, then
	// open the sharded twin over the identical inputs.
	w := newDiffWorkload(t, seed)
	pts := w.db.Points()
	obs := w.db.Obstacles()
	sdb, err := OpenSharded(pts, obs, shards, WithAnswerCache(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	return &twinWorld{twinHarness: newTwinHarness(w, sdb, w.db), single: w.db, sharded: sdb}
}

func runShardedDifferential(t *testing.T, seed int64, shards, ops int) {
	tw := newTwinWorld(t, seed, shards)
	w := tw.gen

	var snap1 *Snapshot
	var snap2 *ShardedSnapshot
	for i := 0; i < ops; i++ {
		if t.Failed() {
			t.FailNow() // harness errors are non-fatal; stop before they cascade
		}
		roll := w.rng.Float64()
		switch {
		case roll < 0.15:
			tw.mutate(t)
		case roll < 0.17:
			// Rotate pins, taken quiesced so both hold the same cut.
			if snap1 != nil {
				snap1.Release()
				snap2.Release()
			}
			snap1, snap2 = tw.single.Snapshot(), tw.sharded.Snapshot()
			if snap1.Epoch() != snap2.Epoch() {
				t.Fatalf("pinned cut skew: single %d, sharded %d", snap1.Epoch(), snap2.Epoch())
			}
		case roll < 0.22 && snap1 != nil && !snap1.Released():
			// Snapshot-pinned reads at a (usually old) cut.
			req := w.request()
			tw.exec(t, req, []QueryOption{snap2.At()}, []QueryOption{AtSnapshot(snap1)})
		case roll < 0.25 && snap1 != nil && !snap1.Released():
			// AtVersion resolution through the pin registries.
			req := w.request()
			ep := snap1.Epoch()
			tw.exec(t, req, []QueryOption{AtVersion(ep)}, []QueryOption{AtVersion(ep)})
		default:
			req := w.request()
			tw.exec(t, req, nil, nil)
		}
	}

	st := tw.sharded.ShardStats()
	t.Logf("shard stats after %d ops: %+v", ops, st)
	t.Logf("sharded cache stats: %+v", tw.sharded.CacheStats())
	if st.RouterExecs == 0 {
		t.Fatal("harness executed nothing through the router")
	}
	if shards > 1 && st.ShardExecs >= st.BroadcastCost {
		t.Fatalf("no routing benefit: shard execs %d >= broadcast cost %d", st.ShardExecs, st.BroadcastCost)
	}
	if shards > 1 && st.DirectExecs == 0 {
		t.Fatal("no request was ever routed to a single shard")
	}
}

// TestShardedDifferentialOneShard proves OpenSharded(..., 1) is a fully
// transparent wrapper of Open: identical IDs, epochs, payloads and metrics.
func TestShardedDifferentialOneShard(t *testing.T) {
	runShardedDifferential(t, 11, 1, 1500)
}

// TestShardedDifferentialGrid is the real scatter-gather configuration: a
// 2x2 grid with border-crossing queries, union mirrors and pinned unions.
func TestShardedDifferentialGrid(t *testing.T) {
	runShardedDifferential(t, 12, 4, 1500)
}

// TestShardedCacheHitPaths re-issues a fixed request set across mutations on
// both twins so sharded answers are served from shard/mirror caches (fresh,
// hit, and promoted) and checks each against the twin — plus a final pass
// that verifies the sharded tier actually produced cache hits.
func TestShardedCacheHitPaths(t *testing.T) {
	tw := newTwinWorld(t, 13, 4)
	w := tw.gen
	reqs := make([]Request, 24)
	for i := range reqs {
		reqs[i] = w.newRequest()
	}
	for round := 0; round < 12; round++ {
		if t.Failed() {
			t.FailNow()
		}
		for _, req := range reqs {
			tw.exec(t, req, nil, nil)
		}
		for k := 0; k < 3; k++ {
			tw.mutate(t)
		}
	}
	st := tw.sharded.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("sharded cache never hit: %+v", st)
	}
	t.Logf("sharded cache stats: %+v", st)
}

// TestShardedSnapshotErrors pins down the sharded error surface: foreign and
// released handles, nil snapshots, and unpinned AtVersion resolution.
func TestShardedSnapshotErrors(t *testing.T) {
	ctx := context.Background()
	tw := newTwinWorld(t, 14, 4)
	req := CONNRequest{Seg: Seg(Pt(10, 10), Pt(30, 30))}

	if _, err := tw.sharded.Exec(ctx, nil); !errors.Is(err, ErrNilRequest) {
		t.Fatalf("nil request: %v", err)
	}
	if _, err := tw.sharded.Exec(ctx, req, AtSnapshot(nil)); err == nil || err.Error() != "connquery: AtSnapshot(nil)" {
		t.Fatalf("AtSnapshot(nil): %v", err)
	}
	// A plain Snapshot belongs to a DB handle, never to the router.
	if _, err := tw.sharded.Exec(ctx, req, AtSnapshot(tw.single.Snapshot())); !errors.Is(err, ErrForeignSnapshot) {
		t.Fatalf("foreign single-node snapshot: %v", err)
	}
	// A ShardedSnapshot of another router is foreign too.
	other, err := OpenSharded([]Point{Pt(1, 1)}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.sharded.Exec(ctx, req, other.Snapshot().At()); !errors.Is(err, ErrForeignSnapshot) {
		t.Fatalf("foreign sharded snapshot: %v", err)
	}
	// And a ShardedSnapshot is foreign to a plain DB. Release it right away:
	// a lingering pin on this revision would keep AtVersion resolving below.
	stray := tw.sharded.Snapshot()
	if _, err := tw.single.Exec(ctx, req, stray.At()); !errors.Is(err, ErrForeignSnapshot) {
		t.Fatalf("sharded snapshot on single-node DB: %v", err)
	}
	stray.Release()

	sp := tw.sharded.Snapshot()
	oldRev := sp.Epoch()
	if _, err := tw.sharded.InsertPoint(Pt(50, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.sharded.Exec(ctx, req, AtVersion(oldRev)); err != nil {
		t.Fatalf("AtVersion while pinned: %v", err)
	}
	if _, err := tw.sharded.Exec(ctx, req, sp.At()); err != nil {
		t.Fatalf("pinned exec: %v", err)
	}
	sp.Release()
	if !sp.Released() {
		t.Fatal("Released() false after Release")
	}
	if _, err := tw.sharded.Exec(ctx, req, sp.At()); !errors.Is(err, ErrSnapshotReleased) {
		t.Fatalf("released pin: %v", err)
	}
	if _, err := tw.sharded.Exec(ctx, req, AtVersion(oldRev)); !errors.Is(err, ErrVersionNotPinned) {
		t.Fatalf("AtVersion after release: %v", err)
	}
	if _, err := tw.sharded.Watch(ctx, req, AtVersion(tw.sharded.Version())); !errors.Is(err, ErrPinnedWatch) {
		t.Fatalf("pinned watch: %v", err)
	}
}

// TestShardedWatchDifferential subscribes the same request on both twins,
// drives mutations, and checks the sharded delivery stream: revisions
// strictly increase, every delivered answer equals the twin's answer at that
// revision, and region-filtered wake-ups only ever *skip* deliveries (the
// sharded count never exceeds the twin's, and the final answers agree).
func TestShardedWatchDifferential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tw := newTwinWorld(t, 15, 4)
	req := CONNRequest{Seg: Seg(Pt(20, 20), Pt(80, 80))}

	chS, err := tw.single.Watch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	chR, err := tw.sharded.Watch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Initial delivery from both.
	first := <-chR
	if first.Err != nil || !first.Delta.Changed {
		t.Fatalf("bad first sharded update: %+v", first)
	}
	firstS := <-chS
	checkTwinAnswers(t, req, first.Answer, firstS.Answer)

	singleCount, shardedCount := 1, 1
	lastSharded := first.Answer
	prevRev := first.Epoch
	for i := 0; i < 40; i++ {
		tw.mutate(t)
		// Quiesce: wait for the twin's delivery for this commit (the twin
		// wakes on every commit), then drain whatever the sharded watch chose
		// to deliver.
		for u := range chS {
			singleCount++
			if u.Err != nil {
				t.Fatalf("single watch error: %v", u.Err)
			}
			if u.Epoch == tw.single.Version() {
				break
			}
		}
		take := func(u Update) {
			shardedCount++
			if u.Err != nil {
				t.Fatalf("sharded watch error: %v", u.Err)
			}
			if u.Epoch <= prevRev {
				t.Fatalf("sharded watch revs not increasing: %d after %d", u.Epoch, prevRev)
			}
			prevRev = u.Epoch
			lastSharded = u.Answer
		}
	drain:
		for {
			select {
			case u := <-chR:
				take(u)
			default:
				break drain
			}
		}
		// The watcher's last answer must be payload-identical to the current
		// ground truth. If it is not yet, the mutation changed the answer, so
		// it must have intersected the watch region, so a delivery is
		// guaranteed to be in flight — block for it.
		want, err := tw.single.Exec(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for !answersEqual(lastSharded.Value(), want.Value()) {
			select {
			case u := <-chR:
				take(u)
			case <-time.After(10 * time.Second):
				t.Fatalf("after mutation %d: sharded watch answer (rev %d) differs from live truth (rev %d) and no delivery arrived",
					i, lastSharded.Epoch(), want.Epoch())
			}
		}
	}
	if shardedCount > singleCount {
		t.Fatalf("sharded watch delivered more than the twin: %d > %d", shardedCount, singleCount)
	}
	t.Logf("deliveries: single %d, sharded %d", singleCount, shardedCount)
}

// TestShardedWatchSkipsFarMutations pins the fan-out invariant directly: a
// watcher over geometry deep inside one cell must not be woken (or
// re-delivered) by mutations in a far corner of the world that lie outside
// its answer's impact region.
func TestShardedWatchSkipsFarMutations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A dense local cluster keeps the watched query's reach tiny.
	pts := []Point{
		Pt(10, 10), Pt(11, 10), Pt(10, 11), Pt(12, 12), Pt(11, 12),
		Pt(90, 90), Pt(95, 95), Pt(90, 95), Pt(95, 90),
	}
	sdb, err := OpenSharded(pts, nil, 4, WithAnswerCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	req := CONNRequest{Seg: Seg(Pt(10, 10), Pt(12, 12))}
	ch, err := sdb.Watch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	first := <-ch
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	// Mutations in the far corner: outside the watcher's widened region.
	for i := 0; i < 5; i++ {
		if _, err := sdb.InsertPoint(Pt(97+float64(i)/10, 97)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case u := <-ch:
		t.Fatalf("far mutations woke the watcher: %+v", u)
	default:
	}
	// A mutation inside the region must still get through.
	if _, err := sdb.InsertPoint(Pt(10.5, 10.5)); err != nil {
		t.Fatal(err)
	}
	u := <-ch
	if u.Err != nil {
		t.Fatal(u.Err)
	}
	if u.Epoch != sdb.Version() {
		t.Fatalf("near mutation delivered rev %d, want %d", u.Epoch, sdb.Version())
	}
}
