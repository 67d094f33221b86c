package wal

// Storage engine measurements (make storage-bench): sustained write
// throughput under each fsync policy — the cost of the durability you
// pick with -fsync — and cold recovery time at 1M names, the figure that
// says whether restart-warming is actually warm. The full report is
// env-gated (LESSLOG_STORAGE_BENCH=1) because it writes ~100MB and runs
// seconds; results land in results/BENCH_storage.json via benchjson.

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"lesslog/internal/benchjson"
	"lesslog/internal/store"
)

// BenchmarkAppend keeps the hot path honest in `make bench-smoke`.
func BenchmarkAppend(b *testing.B) {
	e, _, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	data := make([]byte, 256)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := record{op: opPut, kind: store.Inserted, name: "bench/name", version: uint64(i + 1), data: data}
		if err := e.append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact times one compaction pass over four sealed 8 MiB
// segments of 1 MiB records, a quarter of them live: MB/s is over the bytes
// scanned, B/op is what the pass allocates (TestCompactionAllocBudget holds
// it under 2 MiB whatever the record size).
func BenchmarkCompact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, segs := sealRecords(b, 32, 1<<20, 8, 8<<20)
		var in uint64
		for _, n := range segs {
			in += segSize(segPath(e.Dir(), n))
		}
		b.SetBytes(int64(in))
		b.StartTimer()
		err := e.compact(segs)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// writeBurst drives writers concurrent appenders until total records are
// in, returning the wall time — group commit means FsyncAlways batches
// across them the way a pipelined peer's handler pool would.
func writeBurst(t *testing.T, e *Engine, writers, total, payload int) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	data := make([]byte, payload)
	start := time.Now()
	per := total / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := record{op: opPut, kind: store.Inserted,
					name: fmt.Sprintf("w%02d/%06d", w, i), version: 1, data: data}
				if err := e.append(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

func TestStorageBenchReport(t *testing.T) {
	if os.Getenv("LESSLOG_STORAGE_BENCH") == "" {
		t.Skip("set LESSLOG_STORAGE_BENCH=1 (make storage-bench) to run")
	}
	const (
		writers = 16
		payload = 1024
	)
	var results []benchjson.Result

	// Sustained write throughput per fsync policy, same concurrent burst.
	for _, tc := range []struct {
		policy Policy
		total  int
	}{
		{FsyncNever, 64_000},
		{FsyncInterval, 64_000},
		{FsyncAlways, 16_000}, // every ack waits a (shared) fsync
	} {
		e, _, err := Open(Options{Dir: t.TempDir(), Fsync: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		dur := writeBurst(t, e, writers, tc.total, payload)
		syncs := e.Stats().Syncs.Load()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		opsPerSec := float64(tc.total) / dur.Seconds()
		mbPerSec := opsPerSec * float64(payload) / (1 << 20)
		t.Logf("fsync=%-8s %7d records in %8.1fms: %9.0f rec/s, %7.1f MB/s, %d fsyncs",
			tc.policy, tc.total, float64(dur.Milliseconds()), opsPerSec, mbPerSec, syncs)
		results = append(results, benchjson.Result{
			Name:    "wal_write_fsync_" + tc.policy.String(),
			NsPerOp: float64(dur.Nanoseconds()) / float64(tc.total),
			Extra: map[string]float64{
				"records_per_s":     opsPerSec,
				"mb_per_s":          mbPerSec,
				"fsyncs":            float64(syncs),
				"records":           float64(tc.total),
				"payload_bytes":     payload,
				"writer_goroutines": writers,
			},
		})
	}

	// Cold recovery at 1M names: write the log, reopen, time the replay.
	const names = 1_000_000
	dir := t.TempDir()
	e, _, err := Open(Options{Dir: dir, Fsync: FsyncNever, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16)
	for i := 0; i < names; i++ {
		r := record{op: opPut, kind: store.Inserted,
			name: fmt.Sprintf("n/%07d", i), version: 1, data: data}
		if err := e.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	e2, st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recovery := time.Since(start)
	if st.Len() != names {
		t.Fatalf("recovered %d names, want %d", st.Len(), names)
	}
	replayed := e2.Stats().Recovered.Load()
	e2.Close()
	t.Logf("recovery: %d names in %.2fs (%.0f names/s)",
		names, recovery.Seconds(), float64(names)/recovery.Seconds())
	results = append(results, benchjson.Result{
		Name:    "wal_recovery_1m_names",
		NsPerOp: float64(recovery.Nanoseconds()) / float64(names),
		Extra: map[string]float64{
			"names":            names,
			"records_replayed": float64(replayed),
			"recovery_ms":      float64(recovery.Milliseconds()),
			"names_per_s":      float64(names) / recovery.Seconds(),
		},
	})

	if err := benchjson.Record("storage", results...); err != nil {
		t.Fatal(err)
	}
}
