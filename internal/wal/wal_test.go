package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func rec(op uint8, id int32, epoch uint64, coords ...float64) Record {
	r := Record{Op: op, ID: id, Epoch: epoch}
	copy(r.Coords[:], coords)
	return r
}

func writeAll(t *testing.T, dir string, opts Options, recs []Record) {
	t.Helper()
	w, err := Create(dir, recs[0].Epoch, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func someRecords(n int, fromEpoch uint64) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		e := fromEpoch + uint64(i)
		switch i % 4 {
		case 0:
			recs = append(recs, rec(OpInsertPoint, int32(i), e, float64(i), -float64(i)))
		case 1:
			recs = append(recs, rec(OpInsertObstacle, int32(i), e, 1, 2, 3, 4))
		case 2:
			recs = append(recs, rec(OpDeletePoint, int32(i-2), e, float64(i-2), -float64(i-2)))
		default:
			recs = append(recs, rec(OpDeleteObstacle, int32(i-2), e, 1, 2, 3, 4))
		}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := someRecords(64, 7)
	writeAll(t, dir, Options{}, recs)
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(res.Records), len(recs))
	}
	for i, r := range res.Records {
		if r != recs[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, recs[i])
		}
	}
	if res.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", res.TornBytes)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	recs := someRecords(100, 1)
	writeAll(t, dir, Options{SegmentBytes: 256}, recs)
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("expected multiple segments with a 256-byte roll threshold, got %v", names)
	}
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("scanned %d records across %d segments, want %d", len(res.Records), res.Segments, len(recs))
	}
	for i, r := range res.Records {
		if r != recs[i] {
			t.Fatalf("record %d mismatch after rotation", i)
		}
	}
}

// A torn tail in the final segment ends the scan with the valid prefix; the
// same damage in a non-final segment is corruption and must error.
func TestTornTail(t *testing.T) {
	for _, cut := range []int{1, 3, 7} {
		dir := t.TempDir()
		recs := someRecords(8, 1)
		writeAll(t, dir, Options{}, recs)
		names, _ := listSegments(dir)
		path := filepath.Join(dir, names[0])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := ScanDir(dir, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != len(recs)-1 {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(res.Records), len(recs)-1)
		}
		if res.TornBytes == 0 {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
	}
}

func TestCorruptMiddleSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, Options{SegmentBytes: 128}, someRecords(40, 1))
	names, err := listSegments(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("need >= 2 segments, got %v (%v)", names, err)
	}
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanDir(dir, 4096, nil); err == nil {
		t.Fatal("corrupt non-final segment scanned without error")
	}
}

func TestBadCRCStopsScan(t *testing.T) {
	dir := t.TempDir()
	recs := someRecords(4, 1)
	writeAll(t, dir, Options{}, recs)
	names, _ := listSegments(dir)
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x01 // flip a payload bit of the last record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs)-1 {
		t.Fatalf("got %d records, want %d valid before the bad CRC", len(res.Records), len(recs)-1)
	}
}

func TestGroupCommitSyncs(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{SyncWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range someRecords(10, 1) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// The background syncer must land the batch within a few windows.
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		dirty := w.dirty
		w.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group-commit syncer never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("got %d records, want 10", len(res.Records))
	}
}

func TestTruncateStartsFresh(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range someRecords(6, 1) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(OpInsertPoint, 99, 7, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].ID != 99 {
		t.Fatalf("after truncate want only the post-truncate record, got %+v", res.Records)
	}
}

func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	recs := someRecords(20, 5)
	writeAll(t, dir, Options{SegmentBytes: 128}, recs)
	// Tear the final segment, then rewrite to the first 11 records.
	names, _ := listSegments(dir)
	last := filepath.Join(dir, names[len(names)-1])
	data, _ := os.ReadFile(last)
	os.WriteFile(last, data[:len(data)-2], 0o644)
	if err := Rewrite(dir, recs[:11]); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 11 || res.TornBytes != 0 || res.Segments != 1 {
		t.Fatalf("rewrite left %d records, %d torn bytes, %d segments", len(res.Records), res.TornBytes, res.Segments)
	}
	for i, r := range res.Records {
		if r != recs[i] {
			t.Fatalf("record %d mismatch after rewrite", i)
		}
	}
	// Rewriting to nothing empties the directory.
	if err := Rewrite(dir, nil); err != nil {
		t.Fatal(err)
	}
	res, err = ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("empty rewrite left %d records", len(res.Records))
	}
}

func TestNonMonotonicEpochRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(rec(OpInsertPoint, 1, 5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(OpInsertPoint, 2, 5, 0, 0)); err == nil {
		t.Fatal("duplicate epoch accepted")
	}
}

func TestScanPageAccounting(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, Options{}, someRecords(200, 1))
	pages := map[int64]int{}
	res, err := ScanDir(dir, 512, func(id int64) { pages[id]++ })
	if err != nil {
		t.Fatal(err)
	}
	want := int((res.Bytes + 511) / 512)
	if len(pages) != want {
		t.Fatalf("charged %d distinct pages, want %d for %d bytes", len(pages), want, res.Bytes)
	}
}

// batches splits recs into groups of batchLen for AppendBatch tests.
func batches(recs []Record, batchLen int) [][]Record {
	var out [][]Record
	for len(recs) > 0 {
		n := batchLen
		if n > len(recs) {
			n = len(recs)
		}
		out = append(out, recs[:n])
		recs = recs[n:]
	}
	return out
}

// TestAppendBatchRoundTrip proves a scan cannot tell batched appends from
// individual ones: groups of records written through AppendBatch (mixed with
// single Appends and empty batches) read back as the identical record
// sequence.
func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := someRecords(30, 3)
	w, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := w.AppendBatch(recs[:7]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[7]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(recs[8:8]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(recs[8:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(res.Records), len(recs))
	}
	for i, r := range res.Records {
		if r != recs[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, recs[i])
		}
	}
}

// TestAppendBatchMonotonicRejected pins the epoch discipline: a batch that
// repeats an epoch internally, or that starts at or below the writer's last
// epoch, is rejected whole and latches the writer.
func TestAppendBatchMonotonicRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch([]Record{rec(OpInsertPoint, 1, 1, 0, 0), rec(OpInsertPoint, 2, 1, 1, 1)}); err == nil {
		t.Fatal("internally duplicate epochs accepted")
	}
	if err := w.Append(rec(OpInsertPoint, 3, 2, 0, 0)); err == nil {
		t.Fatal("writer did not latch after the rejected batch")
	}

	dir2 := t.TempDir()
	w2, err := Create(dir2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Append(rec(OpInsertPoint, 1, 5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendBatch([]Record{rec(OpInsertPoint, 2, 5, 0, 0)}); err == nil {
		t.Fatal("batch starting at the writer's last epoch accepted")
	}
}

// TestAppendBatchRotation proves a batch never splits across segments: the
// roll happens before the group's single write, so every group lands whole
// in one segment even when it overshoots the threshold.
func TestAppendBatchRotation(t *testing.T) {
	dir := t.TempDir()
	recs := someRecords(60, 1)
	w, err := Create(dir, 1, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	groups := batches(recs, 6)
	for _, g := range groups {
		if err := w.AppendBatch(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("expected multiple segments with a 128-byte roll threshold, got %v", names)
	}
	// Each segment must begin exactly at a group boundary: its name carries
	// the epoch of its first record, and every group starts at epochs
	// 1, 7, 13, ... for groups of 6.
	for _, name := range names {
		var first uint64
		if _, err := fmt.Sscanf(name, "wal-%x.log", &first); err != nil {
			t.Fatalf("unparseable segment name %q", name)
		}
		if (first-1)%6 != 0 {
			t.Fatalf("segment %q starts mid-batch at epoch %d", name, first)
		}
	}
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(res.Records), len(recs))
	}
	for i, r := range res.Records {
		if r != recs[i] {
			t.Fatalf("record %d mismatch after batched rotation", i)
		}
	}
}

// TestAppendBatchTornTail tears bytes off a batched log: the scan must
// surface the longest valid record prefix, exactly as for individual
// appends.
func TestAppendBatchTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := someRecords(12, 1)
	w, err := Create(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range batches(recs, 4) {
		if err := w.AppendBatch(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs)-1 || res.TornBytes == 0 {
		t.Fatalf("torn batched log scanned %d records (%d torn bytes), want %d", len(res.Records), res.TornBytes, len(recs)-1)
	}
}

// TestAppendBatchDirty pins the Dirty observability: strict mode syncs
// within AppendBatch (clean on return), group mode leaves the group dirty
// until a Sync.
func TestAppendBatchDirty(t *testing.T) {
	strict, err := Create(t.TempDir(), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	if err := strict.AppendBatch(someRecords(4, 1)); err != nil {
		t.Fatal(err)
	}
	if strict.Dirty() {
		t.Fatal("strict-mode AppendBatch returned with the log dirty")
	}

	grouped, err := Create(t.TempDir(), 1, Options{SyncWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer grouped.Close()
	if err := grouped.AppendBatch(someRecords(4, 1)); err != nil {
		t.Fatal(err)
	}
	if !grouped.Dirty() {
		t.Fatal("group-mode AppendBatch left the log clean without a sync")
	}
	if err := grouped.Sync(); err != nil {
		t.Fatal(err)
	}
	if grouped.Dirty() {
		t.Fatal("Sync left the log dirty")
	}
}

// TestAppendIsBatchOfOne pins the one-write-path contract: Append(r) and
// AppendBatch([]Record{r}) leave byte-identical segments (rotation points
// included) and the same sync state — clean on return in strict mode, dirty
// until a Sync under a group-commit window.
func TestAppendIsBatchOfOne(t *testing.T) {
	recs := someRecords(40, 3)
	for _, opts := range []Options{
		{SegmentBytes: 256},
		{SegmentBytes: 256, SyncWindow: time.Minute},
	} {
		segments := func(appendOne func(*Writer, Record) error) map[string]string {
			t.Helper()
			dir := t.TempDir()
			w, err := Create(dir, recs[0].Epoch, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := appendOne(w, r); err != nil {
					t.Fatal(err)
				}
				if strict := opts.SyncWindow == 0; w.Dirty() == strict {
					t.Fatalf("window %v: log dirty=%v after appending epoch %d", opts.SyncWindow, w.Dirty(), r.Epoch)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			names, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			out := make(map[string]string)
			for _, name := range names {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				out[name] = string(data)
			}
			return out
		}
		single := segments(func(w *Writer, r Record) error { return w.Append(r) })
		batched := segments(func(w *Writer, r Record) error { return w.AppendBatch([]Record{r}) })
		if len(single) < 2 {
			t.Fatalf("expected several segments with a 256-byte roll threshold, got %d", len(single))
		}
		if len(single) != len(batched) {
			t.Fatalf("window %v: Append wrote %d segments, AppendBatch of one %d", opts.SyncWindow, len(single), len(batched))
		}
		for name, data := range single {
			if batched[name] != data {
				t.Fatalf("window %v: segment %s differs between Append and AppendBatch of one", opts.SyncWindow, name)
			}
		}
	}
}
