package wal

import (
	"bytes"
	"log/slog"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"lesslog/internal/store"
)

var time0 = time.Unix(100, 0)

// TestSplitWriteRecordsReplay: a payload over inlineData is written from
// where it lives, after its record head, instead of through the encode
// buffer. On disk it must be the very record the contiguous encoder
// produces — sizes straddling the switch replay to the same state, and the
// segment is byte-identical to appendRecord's output.
func TestSplitWriteRecordsReplay(t *testing.T) {
	dir := t.TempDir()
	e, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever})
	rng := rand.New(rand.NewSource(7))
	want := store.New()
	var golden []byte
	for i, n := range []int{0, 1, inlineData - 1, inlineData, inlineData + 1, 1 << 20, 3<<20 + 5, 17} {
		data := make([]byte, n)
		rng.Read(data)
		f := store.File{Name: strings.Repeat("n", i+1), Data: data, Version: uint64(i + 1)}
		e.PersistPut(f, store.Replica)
		want.Put(f, store.Replica)
		var err error
		golden, err = appendRecord(golden, record{op: opPut, kind: store.Replica, version: f.Version, name: f.Name, data: data})
		if err != nil {
			t.Fatal(err)
		}
	}
	e.PersistTombstone("n", 99, time0)
	want.Tombstone("n", 99, time0)
	golden, _ = appendRecord(golden, record{op: opTombstone, version: 99, at: time0.UnixNano(), name: "n"})
	if n := e.Stats().PersistErrors.Load(); n != 0 {
		t.Fatalf("%d persist errors on in-cap records", n)
	}
	if cap(e.enc) > 4*inlineData {
		t.Fatalf("encode buffer grew to %d bytes; large payloads must bypass it", cap(e.enc))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, golden) {
		t.Fatalf("segment (%d bytes) differs from the contiguous encoding (%d bytes)", len(onDisk), len(golden))
	}
	e2, got := openT(t, Options{Dir: dir})
	defer e2.Close()
	sameState(t, got, want)
}

// TestAppendAllocatesNothing: the engine encodes into a buffer it owns, so
// a steady stream of appends — small records copied into it, large ones
// written around it — costs no heap at all.
func TestAppendAllocatesNothing(t *testing.T) {
	e, _ := openT(t, Options{Dir: t.TempDir(), Fsync: FsyncNever})
	defer e.Close()
	for _, n := range []int{4 << 10, 1 << 20} {
		f := store.File{Name: "file-000001", Data: make([]byte, n), Version: 1}
		if allocs := testing.AllocsPerRun(20, func() { e.PersistPut(f, store.Inserted) }); allocs != 0 {
			t.Errorf("PersistPut of %d bytes: %v allocs per append, want 0", n, allocs)
		}
	}
}

// TestPersistErrorsCountedAndWarnedOnce: an append the Persist* hooks
// cannot report — here a body over the record cap — is counted every time
// and warned about once per window, naming the size and the cap.
func TestPersistErrorsCountedAndWarnedOnce(t *testing.T) {
	var logged bytes.Buffer
	e, _ := openT(t, Options{Dir: t.TempDir(), Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	defer e.Close()
	over := store.File{Name: "big", Data: make([]byte, maxData+1), Version: 1}
	for i := 0; i < 3; i++ {
		e.PersistPut(over, store.Inserted)
	}
	e.PersistPut(store.File{Name: "fits", Data: []byte("x"), Version: 1}, store.Inserted)
	if got := e.Stats().PersistErrors.Load(); got != 3 {
		t.Fatalf("persist errors = %d, want 3", got)
	}
	if got := e.Stats().Appends.Load(); got != 1 {
		t.Fatalf("appends = %d, want 1 (the record that fits)", got)
	}
	if e.Err() != nil {
		t.Fatalf("an over-cap body marked the engine degraded: %v", e.Err())
	}
	out := logged.String()
	if n := strings.Count(out, "level=WARN"); n != 1 {
		t.Fatalf("%d warnings for 3 errors inside one window, want 1:\n%s", n, out)
	}
	for _, want := range []string{"name=big", "payload_bytes=16777217", "payload_cap=16777216"} {
		if !strings.Contains(out, want) {
			t.Errorf("warning does not carry %s:\n%s", want, out)
		}
	}
}
