package netnode

// The acceptance benchmarks for the chunked streaming data plane (`make
// stream-bench`; the recorded run lives in results/stream_bench.txt and
// results/BENCH_stream.json):
//
//   - BenchmarkChunkedGet keeps the striped fetch path under bench-smoke:
//     one warm multi-chunk get per iteration, zero relayed bytes.
//   - TestStreamBenchReport is the full comparison. Part one races the
//     single-frame fetch against the chunked fetch at 1–64 MiB payloads
//     (above msg.MaxData only the chunked plane can serve at all — that
//     is the headline: the read ceiling moved from one frame to
//     msg.MaxFileSize). Part two measures aggregate hot-file throughput
//     against replica count: every holder is modeled as a serial server
//     of bounded capacity (PipelineWorkers=1, one pooled stream per
//     address, ServeDelay per chunk), so read throughput is bounded by
//     how many copies the stripe can spread over — the §6 premise the
//     replica-striped fetch path exists to deliver.
//
// Every fabric RPC pays benchRTT (500µs) via injected transport faults,
// the same propagation model the relay/locate comparison uses.

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"lesslog/internal/benchjson"
	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/routehint"
	"lesslog/internal/transport"
)

// startStreamFabric boots an n-peer fabric with B replication bits,
// benchRTT on every outbound RPC, and a per-connection pipeline worker
// cap (0 selects the default) — workers=1 plus a positive serveDelay
// models a serial holder with bounded service capacity, which sleeps
// (overlapping across holders) rather than burns CPU, so striping can
// show real scaling even on a single-core host.
func startStreamFabric(t testing.TB, m, b, n, workers int, serveDelay time.Duration, hasher hashring.Hasher) map[bitops.PID]*Peer {
	t.Helper()
	peers := make(map[bitops.PID]*Peer, n)
	addrs := make(map[bitops.PID]string, n)
	for _, pid := range allPIDs(n) {
		p, err := Listen(Config{
			PID: pid, M: m, B: b, Hasher: hasher,
			PipelineWorkers: workers, ServeDelay: serveDelay,
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

// BenchmarkChunkedGet measures a warm striped fetch of a multi-chunk
// payload; bench-smoke runs it at one iteration so the path cannot rot.
func BenchmarkChunkedGet(b *testing.B) {
	peers := startBenchSystem(b, 4, allPIDs(16), hashring.Fixed(4))
	payload := benchPayload(8 << 20)
	if err := NewClient(peers[8].Addr()).Insert("bench/stream", payload); err != nil {
		b.Fatal(err)
	}
	cl := NewLocateClientWith(peers[8].Addr(), benchClientTransport(b), LocateOptions{})
	if _, err := cl.Get("bench/stream"); err != nil { // cold: locate-set walk
		b.Fatal(err)
	}
	relayed0 := sumRelayed(peers)
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Get("bench/stream"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := sumRelayed(peers) - relayed0; d != 0 {
		b.Fatalf("chunked gets relayed %d payload bytes, want 0", d)
	}
}

// streamBenchSizes are the payload sizes of the single-frame/chunked
// comparison. Above msg.MaxData the single-frame path cannot serve at
// all, so those rows carry the chunked numbers alone.
var streamBenchSizes = []struct {
	label  string
	n      int
	rounds int
}{
	{"1MiB", 1 << 20, 24},
	{"4MiB", 4 << 20, 24},
	{"16MiB", 16 << 20, 12},
	{"64MiB", 64 << 20, 6},
}

// TestStreamBenchReport is the acceptance run behind `make stream-bench`
// (gated by LESSLOG_STREAM_BENCH so plain `go test ./...` stays fast).
func TestStreamBenchReport(t *testing.T) {
	if os.Getenv("LESSLOG_STREAM_BENCH") == "" {
		t.Skip("set LESSLOG_STREAM_BENCH=1 (make stream-bench) to run the stream data-plane comparison")
	}
	// A subtest so the 16-peer latency fabric (holding payloads up to
	// 64 MiB) is torn down before the throughput phase boots its own.
	t.Run("latency", streamLatencyReport)
	streamThroughputReport(t)
}

// streamLatencyReport compares warm single-frame and chunked fetch
// latency per payload size, and proves the read ceiling moved: the
// 64 MiB row has no single-frame number to report.
func streamLatencyReport(t *testing.T) {
	peers := startStreamFabric(t, 4, 0, 16, 0, 0, hashring.Fixed(4))
	entry := peers[8].Addr()
	ctr := transport.New(transport.Config{},
		transport.NewFaults().Add(transport.Rule{Delay: benchRTT}))
	t.Cleanup(func() { ctr.Close() })

	for _, size := range streamBenchSizes {
		name := "bench/" + size.label
		payload := benchPayload(size.n)
		overFrame := size.n > msg.MaxData
		// Over-frame payloads insert through the chunked write plane like
		// everything else — the write ceiling is msg.MaxFileSize too.
		if err := NewClient(entry).Insert(name, payload); err != nil {
			t.Fatal(err)
		}

		run := func(get func() (int, error)) []time.Duration {
			if _, err := get(); err != nil { // cold: pays the locate walk
				t.Fatal(err)
			}
			lat := make([]time.Duration, 0, size.rounds)
			for i := 0; i < size.rounds; i++ {
				start := time.Now()
				n, err := get()
				if err != nil {
					t.Fatal(err)
				}
				if n != size.n {
					t.Fatalf("%s: got %d bytes, want %d", size.label, n, size.n)
				}
				lat = append(lat, time.Since(start))
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			return lat
		}

		relayed0 := sumRelayed(peers)
		chunkCl := NewLocateClientWith(entry, ctr, LocateOptions{})
		chunkLat := run(func() (int, error) {
			res, err := chunkCl.Get(name)
			return len(res.Data), err
		})
		if d := sumRelayed(peers) - relayed0; d != 0 {
			t.Errorf("%s: chunked gets relayed %d payload bytes, want 0", size.label, d)
		}
		if got := chunkCl.LocateStats().ChunkedGets.Load(); got == 0 {
			t.Errorf("%s: no gets went through the chunk plane", size.label)
		}

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
			// The single-frame read the chunk plane replaced: a whole-frame
			// local-only get straight at the holder, issued through the
			// transport as bench/probes.go does.
			loc, err := NewClientWith(entry, ctr).Locate(name)
			if err != nil {
				t.Fatal(err)
			}
			frameLat := run(func() (int, error) {
				resp, err := ctr.Do(loc.Addr, &msg.Request{Kind: msg.KindGet, Flags: msg.FlagLocalOnly, Name: name})
				if err == nil && !resp.OK {
					err = errors.New(resp.Err)
				}
				if err != nil {
					return 0, err
				}
				return len(resp.Data), nil
			})
			results = append(results, benchjson.Result{
				Name:    "report/single-frame/" + size.label,
				NsPerOp: float64(frameLat[len(frameLat)/2].Nanoseconds()),
				Extra: map[string]float64{
					"p50_ms": float64(frameLat[len(frameLat)/2].Nanoseconds()) / 1e6,
					"p99_ms": float64(quantile(frameLat, 0.99).Nanoseconds()) / 1e6,
				},
			})
			logLine += fmt.Sprintf(" | single-frame p50=%v p99=%v",
				frameLat[len(frameLat)/2], quantile(frameLat, 0.99))
		} else {
			logLine += " | single-frame: over the msg.MaxData frame ceiling"
		}
		if err := benchjson.Record("stream", results...); err != nil {
			t.Fatal(err)
		}
		t.Log(logLine)
	}
}

// benchServeDelay is the modeled per-chunk service time of a holder in
// the throughput comparison. Real chunk service on a loopback fabric is
// far cheaper than the client's own decode/CRC work (and the host may
// have a single core), so CPU cost cannot show capacity scaling; a
// slept service time can, because sleeps overlap across holders.
const benchServeDelay = 10 * time.Millisecond

// streamThroughputReport measures aggregate hot-file read throughput
// against replica count. Holders are modeled as serial servers of
// bounded capacity: one pipeline worker per connection, one pooled
// stream per address, benchServeDelay per chunk. With one copy every
// chunk of every reader queues behind one worker; with 2^b copies the
// stripe spreads the same load over 2^b queues.
func streamThroughputReport(t *testing.T) {
	const (
		hotSize = 8 << 20
		readers = 4
		fetches = 6
	)
	type row struct {
		replicas int
		mibps    float64
	}
	var rows []row
	for _, b := range []int{0, 1, 2} {
		replicas := 1 << b
		// A subtest per replica count so t.Cleanup tears each fabric down
		// before the next one boots — 16 fresh peers per configuration,
		// not an accumulating pile competing for the host.
		ok := t.Run(fmt.Sprintf("hotfile/replicas=%d", replicas), func(t *testing.T) {
			peers := startStreamFabric(t, 4, b, 16, 1, benchServeDelay, hashring.Fixed(4))
			entry := peers[8].Addr()
			payload := benchPayload(hotSize)
			if err := NewClient(entry).Insert("bench/hot", payload); err != nil {
				t.Fatal(err)
			}
			// One shared transport (one pooled stream per holder) and one
			// shared hint cache: every reader's chunks ride the same
			// per-holder connection, so holder capacity — not connection
			// count — is what replication has to beat.
			ctr := transport.New(transport.Config{PoolSize: 1},
				transport.NewFaults().Add(transport.Rule{Delay: benchRTT}))
			t.Cleanup(func() { ctr.Close() })
			hints := routehint.New(0, 0)
			// Warm with a window-1 client: its sequential cold fetch pays
			// the locate walk once (filling the shared hint cache) and
			// establishes the single pooled stream per holder. Concurrent
			// cold fetches would each dial their own connection and
			// silently widen every holder's serial queue.
			warm := NewLocateClientWith(entry, ctr, LocateOptions{Hints: hints, ChunkWindow: 1})
			if _, err := warm.Get("bench/hot"); err != nil {
				t.Fatal(err)
			}
			cls := make([]*Client, readers)
			for i := range cls {
				cls[i] = NewLocateClientWith(entry, ctr, LocateOptions{Hints: hints})
			}

			relayed0 := sumRelayed(peers)
			start := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(cl *Client) {
					defer wg.Done()
					for j := 0; j < fetches; j++ {
						res, err := cl.Get("bench/hot")
						if err != nil {
							errs <- err
							return
						}
						if len(res.Data) != hotSize {
							errs <- fmt.Errorf("short read: %d bytes", len(res.Data))
							return
						}
					}
				}(cls[i])
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if d := sumRelayed(peers) - relayed0; d != 0 {
				t.Errorf("replicas=%d: hot gets relayed %d payload bytes, want 0", replicas, d)
			}
			width := cls[0].StreamStats().StripeWidth.Load()
			if int(width) > replicas {
				t.Errorf("replicas=%d: stripe width %d exceeds the replica set", replicas, width)
			}
			mibps := float64(readers*fetches*hotSize) / (1 << 20) / elapsed.Seconds()
			rows = append(rows, row{replicas, mibps})
			if err := benchjson.Record("stream", benchjson.Result{
				Name: fmt.Sprintf("report/hotfile/replicas=%d", replicas),
				Extra: map[string]float64{
					"throughput_mib_s": mibps,
					"stripe_width":     float64(width),
					"relayed_bytes":    0,
				},
			}); err != nil {
				t.Fatal(err)
			}
			t.Logf("replicas=%d: %.1f MiB/s aggregate (%d readers × %d fetches of %d MiB), stripe width %d",
				replicas, mibps, readers, fetches, hotSize>>20, width)
		})
		if !ok {
			t.Fatalf("replicas=%d configuration failed", replicas)
		}
	}
	base, quad := rows[0].mibps, rows[len(rows)-1].mibps
	if quad < 2*base {
		t.Errorf("hot-file throughput at 4 replicas = %.1f MiB/s, want >= 2x the 1-replica %.1f MiB/s",
			quad, base)
	}
	if err := benchjson.Record("stream", benchjson.Result{
		Name:    "report/hotfile/scaling",
		Speedup: quad / base,
	}); err != nil {
		t.Fatal(err)
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
