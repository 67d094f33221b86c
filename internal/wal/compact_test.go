package wal

// Compaction as scan-then-copy (docs/STORAGE.md "Checkpoints and
// compaction"): what a checkpoint must preserve, what it must refuse to
// touch, and what it may cost.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"lesslog/internal/store"
)

// decodeBody parses one whole record body held in memory the way readRecord
// parses one streamed from a file: decodeHead over its first bytes, the
// payload being whatever follows.
func decodeBody(body []byte) (record, error) {
	r, dataLen, err := decodeHead(body[:min(len(body), maxHead)], len(body))
	if err == nil && r.op == opPut {
		r.data = body[len(body)-dataLen:]
	}
	return r, err
}

// sameReplay is sameState plus what sameState leaves out: the tombstones'
// record times, which compaction must carry over too.
func sameReplay(t *testing.T, got, want *store.Store) {
	t.Helper()
	sameState(t, got, want)
	gt, wt := got.Tombstones(), want.Tombstones()
	for i := range wt {
		if !gt[i].At.Equal(wt[i].At) {
			t.Fatalf("tombstone %s recorded at %v, want %v", wt[i].Name, gt[i].At, wt[i].At)
		}
	}
}

// reopen closes e and replays its directory from scratch, compaction off.
func reopen(t *testing.T, e *Engine, opts Options) (*Engine, *store.Store) {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	opts.CompactAfter = -1
	return openT(t, opts)
}

// historyBody draws a payload of 0 B – 200 KiB: mostly small, sometimes
// right at the inlineData switch between one write and two, sometimes large.
func historyBody(rng *rand.Rand) []byte {
	var n int
	switch rng.Intn(8) {
	case 0:
		n = 0
	case 1:
		n = inlineData - 1 + rng.Intn(3)
	case 2:
		n = inlineData + rng.Intn(200<<10-inlineData+1)
	default:
		n = rng.Intn(2 << 10)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// historyStep applies step i of a random history to live, the store e
// persists: puts and updates over a dozen colliding names, replica puts over
// inserted copies, promotions, tombstones and re-inserts after them, local
// deletes, and — at step retireAt — the departure barrier.
func historyStep(t *testing.T, rng *rand.Rand, i, retireAt int, live *store.Store, e *Engine) {
	t.Helper()
	if i == retireAt {
		if err := e.Retire(); err != nil {
			t.Fatal(err)
		}
		live.DiscardAll()
		return
	}
	name := fmt.Sprintf("f%02d", rng.Intn(12))
	v := uint64(i + 1)
	switch rng.Intn(16) {
	case 0:
		live.Delete(name)
	case 1, 2:
		live.Tombstone(name, v, time.Unix(int64(i), int64(i)))
	case 3, 4:
		live.Promote(name)
	case 5, 6:
		live.Update(name, historyBody(rng), v)
	case 7, 8:
		live.Put(store.File{Name: name, Data: historyBody(rng), Version: v}, store.Replica)
	case 9:
		live.PutNewer(store.File{Name: name, Data: historyBody(rng), Version: uint64(rng.Intn(i + 2))}, store.Replica)
	default:
		kind := store.Inserted
		if rng.Intn(3) == 0 {
			kind = store.Replica
		}
		live.Put(store.File{Name: name, Data: historyBody(rng), Version: v}, kind)
	}
}

const historySteps = 120

// TestCompactionPreservesReplay is the differential property: whatever the
// history, the store Open rebuilds from a compacted log equals the one it
// rebuilt from the same log before compaction — names, versions, kinds,
// data, tombstone versions and times. Each seed checkpoints twice, so the
// second pass re-scans the first one's output beside fresh segments.
func TestCompactionPreservesReplay(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{Dir: t.TempDir(), SegmentSize: 8 << 10, Fsync: FsyncNever, CompactAfter: -1}
		e, live := openT(t, opts)
		retireAt := historySteps/4 + rng.Intn(historySteps/2)
		for half := 0; half < 2; half++ {
			live.SetPersister(e)
			for i := half * historySteps / 2; i < (half+1)*historySteps/2; i++ {
				historyStep(t, rng, i, retireAt, live, e)
			}
			var before *store.Store
			e, before = reopen(t, e, opts)
			sameReplay(t, before, live)
			if sealed, _ := e.Segments(); sealed < 4 {
				t.Fatalf("seed %d: history spans %d sealed segments, want several", seed, sealed)
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if sealed, _ := e.Segments(); sealed != 1 {
				t.Fatalf("seed %d: %d sealed segments after a checkpoint", seed, sealed)
			}
			var after *store.Store
			e, after = reopen(t, e, opts)
			sameReplay(t, after, before)
			live = after
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackgroundCompactionPreservesReplay runs the same histories twice,
// into a log that never compacts and into one whose background compactor
// races the appends (run under -race) and, at the end, an explicit
// Checkpoint: both must replay to the same store.
func TestBackgroundCompactionPreservesReplay(t *testing.T) {
	for seed := int64(100); seed < 125; seed++ {
		plain := Options{Dir: t.TempDir(), SegmentSize: 8 << 10, Fsync: FsyncNever, CompactAfter: -1}
		racing := plain
		racing.Dir, racing.CompactAfter = t.TempDir(), 2
		var engines [2]*Engine
		for k, opts := range []Options{plain, racing} {
			rng := rand.New(rand.NewSource(seed))
			e, live := openT(t, opts)
			live.SetPersister(e)
			retireAt := historySteps/4 + rng.Intn(historySteps/2)
			for i := 0; i < historySteps; i++ {
				historyStep(t, rng, i, retireAt, live, e)
			}
			engines[k] = e
		}
		// A compaction may be in flight: Checkpoint queues behind it.
		if err := engines[1].Checkpoint(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := engines[1].Stats().Compactions.Load(); n < 2 {
			t.Fatalf("seed %d: %d compactions ran, want the background one and the checkpoint", seed, n)
		}
		e0, want := reopen(t, engines[0], plain)
		e1, got := reopen(t, engines[1], racing)
		sameReplay(t, got, want)
		e0.Close()
		e1.Close()
	}
}

// dirFiles reads every file of dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = b
	}
	return files
}

// TestCompactionAbortsOnCorruptSealedSegment: a sealed segment that fails
// its scan — a bit flipped inside the payload of a superseded record, bytes
// the copy pass would never have read, or a file cut short mid-record —
// makes compaction return the error and change nothing: every segment
// byte-identical, no .tmp, no .cpt. A later Open then applies its own rule
// and truncates at the first corruption.
func TestCompactionAbortsOnCorruptSealedSegment(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, path string, rec0 int64)
	}{
		{"bit flip in a superseded payload", func(t *testing.T, path string, rec0 int64) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[rec0-10] ^= 0x04 // inside the first record's payload
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated mid-record", func(t *testing.T, path string, rec0 int64) {
			if err := os.Truncate(path, rec0/2); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := openT(t, Options{Dir: dir, SegmentSize: 1 << 10, Fsync: FsyncNever, CompactAfter: -1})
			var recs []record
			for i := 0; i < 12; i++ {
				r := record{op: opPut, kind: store.Inserted, name: string(rune('a' + i%3)),
					version: uint64(i + 1), data: bytes.Repeat([]byte{byte(i)}, 700)}
				if err := e.append(r); err != nil {
					t.Fatal(err)
				}
				recs = append(recs, r)
			}
			// Two 700-byte records fill a segment; corrupt the third (records
			// 4 and 5), whose first record every later put of its name supersedes.
			segs, err := e.listSegments()
			if err != nil || len(segs) != 6 {
				t.Fatalf("segments = %v (%v), want 6", segs, err)
			}
			tc.corrupt(t, segPath(dir, segs[2]), encodedLen(recs[4]))
			before := dirFiles(t, dir)

			err = e.Checkpoint()
			want := fmt.Sprintf("wal: sealed segment %d is corrupt", segs[2])
			if err == nil || err.Error() != want {
				t.Fatalf("Checkpoint = %v, want %q", err, want)
			}
			if n := e.Stats().Compactions.Load(); n != 0 {
				t.Fatalf("%d compactions counted", n)
			}
			after := dirFiles(t, dir)
			for name, b := range before {
				if !bytes.Equal(after[name], b) {
					t.Errorf("%s changed under an aborted compaction", name)
				}
				delete(after, name)
			}
			// Checkpoint sealed the active segment first; the one new file
			// is the empty active segment that rotation opened.
			for name, b := range after {
				if !strings.HasSuffix(name, ".seg") || len(b) != 0 {
					t.Errorf("aborted compaction left %s (%d bytes)", name, len(b))
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			e2, got := openT(t, Options{Dir: dir, CompactAfter: -1})
			defer e2.Close()
			prefix := store.New()
			for _, r := range recs[:4] {
				r.apply(prefix)
			}
			sameState(t, got, prefix)
			if left, _ := e2.listSegments(); len(left) != 3 {
				t.Fatalf("segments after recovery = %v, want the three up to the corruption", left)
			}
		})
	}
}

// TestFailedCompactionRemovesTempFile: a pass that fails after creating
// <top>.cpt.tmp — here the rename onto a squatted .cpt name — takes the
// temp file with it instead of leaving a checkpoint-sized orphan for the
// next Open, and leaves the segments it read alone.
func TestFailedCompactionRemovesTempFile(t *testing.T) {
	dir := t.TempDir()
	e, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever, CompactAfter: -1})
	defer e.Close()
	e.PersistPut(store.File{Name: "x", Data: []byte("kept"), Version: 1}, store.Inserted)
	squat := cptPath(dir, 1)
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(squat, "occupied"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint renamed its temp file over a non-empty directory")
	}
	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	for name := range dirFiles(t, dir) {
		if !strings.HasSuffix(name, ".seg") {
			t.Errorf("failed compaction left %s behind", name)
		}
	}
	// Nothing was lost, and the next pass goes through.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var kept []record
	replayFile(segPath(dir, 1), func(r record) { kept = append(kept, r) })
	if len(kept) != 1 || kept[0].name != "x" || string(kept[0].data) != "kept" {
		t.Fatalf("checkpoint holds %+v", kept)
	}
}

// sealRecords opens an engine over a fresh directory and logs count puts of
// size bytes each, cycling over names names, into segments of segSize bytes,
// then seals the active one. It returns the engine and the sealed list.
func sealRecords(tb testing.TB, count, size, names int, segSize int64) (*Engine, []uint64) {
	tb.Helper()
	e, _, err := Open(Options{Dir: tb.TempDir(), SegmentSize: segSize, Fsync: FsyncNever, CompactAfter: -1})
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, size)
	for i := 0; i < count; i++ {
		data[0] = byte(i)
		r := record{op: opPut, kind: store.Inserted, name: fmt.Sprintf("file-%03d", i%names), version: uint64(i + 1), data: data}
		if err := e.append(r); err != nil {
			tb.Fatal(err)
		}
	}
	e.mu.Lock()
	err = e.rotateLocked()
	segs := append([]uint64(nil), e.sealed...)
	e.mu.Unlock()
	if err != nil {
		tb.Fatal(err)
	}
	return e, segs
}

// TestCompactionAllocBudget: compacting four sealed segments that hold
// 64 MiB of records allocates the scan's reader and the bookkeeping for the
// live names — under 2 MiB all told, and no more when the same bytes come
// as 8 MiB records instead of 1 MiB ones. A record body read into the heap,
// even once, fails this (make bench-smoke runs it).
func TestCompactionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 128 MiB")
	}
	compactAlloc := func(recSize int) uint64 {
		e, segs := sealRecords(t, 64<<20/recSize, recSize, 16<<20/recSize, 16<<20)
		defer e.Close()
		if len(segs) != 4 {
			t.Fatalf("%d sealed segments, want 4", len(segs))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := e.compact(segs)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if size := segSize(segPath(e.Dir(), segs[3])); size < 16<<20 || size > 17<<20 {
			t.Fatalf("checkpoint is %d bytes, want the 16 MiB that is live", size)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := compactAlloc(1<<20), compactAlloc(8<<20)
	t.Logf("compacting 64 MiB allocates %d KiB as 1 MiB records, %d KiB as 8 MiB records", small>>10, large>>10)
	if small >= 2<<20 {
		t.Errorf("1 MiB records: compaction allocated %d bytes, budget 2 MiB", small)
	}
	if large > small+64<<10 {
		t.Errorf("8 MiB records: compaction allocated %d bytes against %d for 1 MiB records; it must not grow with record size", large, small)
	}
}

// rawRecords splits a segment file into its records' bytes, sorted.
func rawRecords(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []string
	var off int64
	valid, torn, err := replayFile(path, func(r record) {
		recs = append(recs, string(b[off:off+encodedLen(r)]))
		off += encodedLen(r)
	})
	if err != nil || torn || valid != int64(len(b)) {
		t.Fatalf("%s: valid %d of %d bytes, torn %v, err %v", path, valid, len(b), torn, err)
	}
	sort.Strings(recs)
	return recs
}

// copyDir copies testdata directory src into a fresh temp directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, b := range dirFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestGoldenCheckpointFormat pins the on-disk format across the rewrite in
// both directions, against two directories the replay-into-heap compactor
// of PR 14 wrote (testdata/README.md): golden/log holds a history's raw
// segments, golden/checkpointed the same directory after that compactor's
// Checkpoint. Forward: both open to the same store here. Backward: this
// compactor's checkpoint of golden/log holds, record for record, the very
// bytes the old one wrote — in log order instead of name order, which no
// replay can tell apart, as a checkpoint holds one record per name.
func TestGoldenCheckpointFormat(t *testing.T) {
	logDir, cptDir := copyDir(t, "testdata/golden/log"), copyDir(t, "testdata/golden/checkpointed")
	eOld, fromOld := openT(t, Options{Dir: cptDir, CompactAfter: -1})
	defer eOld.Close()
	e, fromLog := openT(t, Options{Dir: logDir, CompactAfter: -1})
	defer e.Close()
	if fromLog.Len() < 5 || fromLog.TombstoneCount() < 2 {
		t.Fatalf("golden history too thin: %d names, %d tombstones", fromLog.Len(), fromLog.TombstoneCount())
	}
	sameReplay(t, fromOld, fromLog)

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldSegs, _ := eOld.listSegments()
	newSegs, _ := e.listSegments()
	if len(oldSegs) == 0 || len(newSegs) == 0 || oldSegs[0] != newSegs[0] {
		t.Fatalf("checkpoint segments: old %v, new %v", oldSegs, newSegs)
	}
	oldRecs, newRecs := rawRecords(t, segPath(cptDir, oldSegs[0])), rawRecords(t, segPath(logDir, newSegs[0]))
	if len(oldRecs) != len(newRecs) {
		t.Fatalf("checkpoint holds %d records, the old compactor's %d", len(newRecs), len(oldRecs))
	}
	for i := range oldRecs {
		if oldRecs[i] != newRecs[i] {
			t.Fatalf("record %d differs from the old compactor's bytes", i)
		}
	}
}
