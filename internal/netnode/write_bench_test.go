package netnode

// The acceptance benchmarks for the chunked write plane (`make
// write-bench`; the recorded run lives in results/write_bench.txt and
// results/BENCH_write.json):
//
//   - BenchmarkChunkedPut keeps the staged upload path under bench-smoke:
//     one warm multi-chunk update commit per iteration.
//   - TestWriteBenchReport is the full comparison. Part one races the
//     whole-frame write against the staged chunked put at 1–64 MiB
//     payloads (above msg.MaxData only the chunked plane can write at
//     all — the headline: the write ceiling moved from one frame to
//     msg.MaxFileSize). Part two measures what the broadcast tree itself
//     carries per update against replica count: the tree carries only
//     transfer facts and every copy pulls, so broadcast bytes do not
//     scale with the payload or the copy count.
//
// Every fabric RPC pays benchRTT (500µs) via injected transport faults,
// the same propagation model the stream and locate comparisons use.

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"lesslog/internal/benchjson"
	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/stream"
	"lesslog/internal/transport"
)

// startWriteFabric boots an n-peer fabric with B replication bits and
// benchRTT on every outbound RPC.
func startWriteFabric(t testing.TB, m, b, n int, hasher hashring.Hasher) map[bitops.PID]*Peer {
	t.Helper()
	peers := make(map[bitops.PID]*Peer, n)
	addrs := make(map[bitops.PID]string, n)
	for _, pid := range allPIDs(n) {
		p, err := Listen(Config{
			PID: pid, M: m, B: b, Hasher: hasher,
			Faults: transport.NewFaults().Add(transport.Rule{Delay: benchRTT}),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[pid] = p
		addrs[pid] = p.Addr()
	}
	for _, p := range peers {
		p.SetAddrs(addrs)
	}
	return peers
}

// BenchmarkChunkedPut measures a warm staged chunked update of a
// multi-chunk payload; bench-smoke runs it at one iteration so the write
// path cannot rot.
func BenchmarkChunkedPut(b *testing.B) {
	peers := startBenchSystem(b, 4, allPIDs(16), hashring.Fixed(4))
	payload := benchPayload(8 << 20)
	if err := NewClient(peers[8].Addr()).Insert("bench/put", payload); err != nil {
		b.Fatal(err)
	}
	up := stream.NewUploader(benchClientTransport(b), stream.Config{})
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := up.Put(peers[8].Addr(), "bench/put", payload, msg.PutUpdate); err != nil {
			b.Fatal(err)
		}
	}
}

// writeBenchSizes are the payload sizes of the whole-frame/chunked write
// comparison. Above msg.MaxData the whole-frame path cannot write at
// all, so those rows carry the chunked numbers alone.
var writeBenchSizes = []struct {
	label  string
	n      int
	rounds int
}{
	{"1MiB", 1 << 20, 12},
	{"4MiB", 4 << 20, 12},
	{"16MiB", 16 << 20, 6},
	{"64MiB", 64 << 20, 3},
}

// TestWriteBenchReport is the acceptance run behind `make write-bench`
// (gated by LESSLOG_WRITE_BENCH so plain `go test ./...` stays fast).
func TestWriteBenchReport(t *testing.T) {
	if os.Getenv("LESSLOG_WRITE_BENCH") == "" {
		t.Skip("set LESSLOG_WRITE_BENCH=1 (make write-bench) to run the write-plane comparison")
	}
	t.Run("latency", writeLatencyReport)
	writePropagationReport(t)
}

// writeLatencyReport compares warm whole-frame and staged chunked update
// latency per payload size, and proves the write ceiling moved: the
// 64 MiB row has no whole-frame number to report.
func writeLatencyReport(t *testing.T) {
	peers := startWriteFabric(t, 4, 0, 16, hashring.Fixed(4))
	entry := peers[8].Addr()
	ctr := transport.New(transport.Config{},
		transport.NewFaults().Add(transport.Rule{Delay: benchRTT}))
	t.Cleanup(func() { ctr.Close() })

	for _, size := range writeBenchSizes {
		name := "bench/w-" + size.label
		payload := benchPayload(size.n)
		overFrame := size.n > msg.MaxData
		if err := NewClientWith(entry, ctr).Insert(name, payload); err != nil {
			t.Fatal(err)
		}

		run := func(write func() error) []time.Duration {
			lat := make([]time.Duration, 0, size.rounds)
			for i := 0; i < size.rounds; i++ {
				start := time.Now()
				if err := write(); err != nil {
					t.Fatal(err)
				}
				lat = append(lat, time.Since(start))
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			return lat
		}

		up := stream.NewUploader(ctr, stream.Config{})
		chunkLat := run(func() error {
			_, err := up.Put(entry, name, payload, msg.PutUpdate)
			return err
		})

		results := []benchjson.Result{{
			Name:    "report/chunked/" + size.label,
			NsPerOp: float64(chunkLat[len(chunkLat)/2].Nanoseconds()),
			Extra: map[string]float64{
				"p50_ms":     float64(chunkLat[len(chunkLat)/2].Nanoseconds()) / 1e6,
				"p99_ms":     float64(quantile(chunkLat, 0.99).Nanoseconds()) / 1e6,
				"over_frame": b2f(overFrame),
			},
		}}
		logLine := fmt.Sprintf("%s: chunked p50=%v p99=%v", size.label,
			chunkLat[len(chunkLat)/2], quantile(chunkLat, 0.99))

		if !overFrame {
			cl := NewClientWith(entry, ctr)
			frameLat := run(func() error {
				_, err := cl.Update(name, payload)
				return err
			})
			results = append(results, benchjson.Result{
				Name:    "report/whole-frame/" + size.label,
				NsPerOp: float64(frameLat[len(frameLat)/2].Nanoseconds()),
				Extra: map[string]float64{
					"p50_ms": float64(frameLat[len(frameLat)/2].Nanoseconds()) / 1e6,
					"p99_ms": float64(quantile(frameLat, 0.99).Nanoseconds()) / 1e6,
				},
			})
			logLine += fmt.Sprintf(" | whole-frame p50=%v p99=%v",
				frameLat[len(frameLat)/2], quantile(frameLat, 0.99))
		} else {
			logLine += " | whole-frame: over the msg.MaxData frame ceiling"
		}
		if err := benchjson.Record("write", results...); err != nil {
			t.Fatal(err)
		}
		t.Log(logLine)
	}
}

// writePropagationReport measures what the broadcast tree itself carries
// per update — the sum of every peer's FanoutBytes, payload bytes put on
// remote broadcast legs — against replica count. The legs carry only the
// transfer facts and every copy pulls the body, so tree bytes stay under
// one payload no matter how many copies there are.
func writePropagationReport(t *testing.T) {
	const payloadSize = 4 << 20
	payload := benchPayload(payloadSize)
	fanout := func(peers map[bitops.PID]*Peer) uint64 {
		return sumWriteStat(peers, func(s *Stats) uint64 { return s.FanoutBytes.Load() })
	}
	for _, b := range []int{0, 1, 2} {
		replicas := 1 << b
		ok := t.Run(fmt.Sprintf("propagation/replicas=%d", replicas), func(t *testing.T) {
			peers := startWriteFabric(t, 4, b, 16, hashring.Fixed(4))
			cl := NewClient(peers[8].Addr())
			if err := cl.Insert("bench/prop", payload); err != nil {
				t.Fatal(err)
			}
			before := fanout(peers)
			if _, err := cl.Update("bench/prop", payload); err != nil {
				t.Fatal(err)
			}
			treeBytes := fanout(peers) - before
			if treeBytes >= payloadSize {
				t.Errorf("notify tree carried %d bytes for a %d-byte payload, want payload-free legs",
					treeBytes, payloadSize)
			}
			if err := benchjson.Record("write", benchjson.Result{
				Name: fmt.Sprintf("report/propagation/replicas=%d", replicas),
				Extra: map[string]float64{
					"notify_tree_bytes": float64(treeBytes),
					"payload_bytes":     payloadSize,
				},
			}); err != nil {
				t.Fatal(err)
			}
			t.Logf("replicas=%d: notify tree carried %d bytes (payload %d)", replicas, treeBytes, payloadSize)
		})
		if !ok {
			t.Fatalf("replicas=%d configuration failed", replicas)
		}
	}
}
