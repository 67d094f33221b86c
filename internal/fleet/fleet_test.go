package fleet

import (
	"bytes"
	"errors"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/metrics"
	"lesslog/internal/netnode"
	"lesslog/internal/store"
)

// snapOf builds one peer's worth of latency samples as a snapshot.
func snapOf(samples ...uint64) metrics.HistogramSnapshot {
	var h metrics.Histogram
	for _, v := range samples {
		h.Observe(v)
	}
	return h.Snapshot()
}

// TestAggregateMergesHistograms checks the core claim of the package:
// fleet percentiles computed from merged bucket vectors equal the
// percentiles of one histogram that observed every peer's samples.
func TestAggregateMergesHistograms(t *testing.T) {
	// Two peers with deliberately skewed distributions: peer A fast,
	// peer B slow. Neither peer's own p99 is the fleet p99.
	a := []uint64{1e6, 2e6, 2e6, 3e6}           // 1–3 ms
	b := []uint64{40e6, 50e6, 60e6, 80e6, 90e6} // 40–90 ms
	stats := []PeerStat{
		{Addr: "a", Stat: netnode.StatSnapshot{
			Totals: netnode.Totals{
				Served:       4,
				ChunksServed: 3,
				ChunkBytes:   3 << 20,
				WriteChunks:  2,
				NotifyPulls:  1,
				FanoutBytes:  1 << 20,
			},
			HandlerLatencyHist: map[string]metrics.HistogramSnapshot{"get": snapOf(a...)},
		}},
		{Addr: "b", Stat: netnode.StatSnapshot{
			Totals: netnode.Totals{
				Served:        5,
				ChunksServed:  5,
				ChunkBytes:    5 << 20,
				ChunkRefusals: 1,
				WriteChunks:   4,
				NotifyPulls:   2,
				FanoutBytes:   2 << 20,
			},
			HandlerLatencyHist: map[string]metrics.HistogramSnapshot{"get": snapOf(b...)},
		}},
		{Addr: "down", Err: errors.New("connection refused")},
	}

	c := Aggregate(stats, 0)
	if c.Peers != 2 || len(c.Unreachable) != 1 || c.Unreachable[0] != "down" {
		t.Fatalf("peers = %d, unreachable = %v", c.Peers, c.Unreachable)
	}
	if c.Served != 9 {
		t.Fatalf("summed served = %d, want 9", c.Served)
	}
	if c.ChunksServed != 8 || c.ChunkBytes != 8<<20 || c.ChunkRefusals != 1 {
		t.Fatalf("chunk plane merge = served %d bytes %d refused %d, want 8/%d/1",
			c.ChunksServed, c.ChunkBytes, c.ChunkRefusals, 8<<20)
	}
	if c.WriteChunks != 6 || c.NotifyPulls != 3 || c.FanoutBytes != 3<<20 {
		t.Fatalf("write plane merge = chunks %d pulls %d fanout %d, want 6/3/%d",
			c.WriteChunks, c.NotifyPulls, c.FanoutBytes, 3<<20)
	}

	want := snapOf(append(append([]uint64{}, a...), b...)...)
	got, ok := c.HandlerLatencyMS["get"]
	if !ok {
		t.Fatalf("no merged get distribution: %v", c.HandlerLatencyMS)
	}
	if got.Count != want.Count {
		t.Fatalf("merged count = %d, want %d", got.Count, want.Count)
	}
	for _, q := range []struct {
		q    float64
		have float64
	}{{0.5, got.P50}, {0.95, got.P95}, {0.99, got.P99}} {
		if wantQ := want.Quantile(q.q) * metrics.NsToMS; q.have != wantQ {
			t.Fatalf("merged p%g = %v ms, hand-merged histogram says %v ms", q.q*100, q.have, wantQ)
		}
	}
	if got.Max != float64(want.Max)*metrics.NsToMS {
		t.Fatalf("merged max = %v, want %v", got.Max, float64(want.Max)*metrics.NsToMS)
	}
}

// TestAggregateInventoryViews checks the inventory-derived views: the
// replica-count distribution and the hit-ranked top-K with summed
// per-holder serve counters.
func TestAggregateInventoryViews(t *testing.T) {
	inv := func(recs ...store.Record) netnode.StatSnapshot {
		return netnode.StatSnapshot{Inventory: recs}
	}
	stats := []PeerStat{
		{Addr: "a", Stat: inv(
			store.Record{Name: "hot", Hits: 70},
			store.Record{Name: "warm", Hits: 9},
			store.Record{Name: "cold", Hits: 0},
		)},
		{Addr: "b", Stat: inv(
			store.Record{Name: "hot", Hits: 30},
			store.Record{Name: "warm", Hits: 2},
		)},
	}
	c := Aggregate(stats, 2)
	// hot and warm at 2 copies, cold at 1.
	if c.ReplicaDist[2] != 2 || c.ReplicaDist[1] != 1 {
		t.Fatalf("replica dist = %v, want 2x=2 1x=1", c.ReplicaDist)
	}
	if len(c.TopNames) != 2 {
		t.Fatalf("topK=2 ranked %d names: %v", len(c.TopNames), c.TopNames)
	}
	if c.TopNames[0] != (HotName{Name: "hot", Hits: 100, Copies: 2}) {
		t.Fatalf("top name = %+v, want hot with summed hits 100", c.TopNames[0])
	}
	if c.TopNames[1] != (HotName{Name: "warm", Hits: 11, Copies: 2}) {
		t.Fatalf("second name = %+v, want warm with summed hits 11", c.TopNames[1])
	}
}

// startCluster brings up n live peers sharing one address book.
func startCluster(t testing.TB, n, m int) ([]string, []*netnode.Peer) {
	t.Helper()
	addrs := make(map[bitops.PID]string, n)
	peers := make([]*netnode.Peer, 0, n)
	for i := 0; i < n; i++ {
		p, err := netnode.Listen(netnode.Config{PID: bitops.PID(i), M: m, Hasher: hashring.FNV{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
		addrs[bitops.PID(i)] = p.Addr()
	}
	flat := make([]string, n)
	for i, p := range peers {
		p.SetAddrs(addrs)
		flat[i] = addrs[bitops.PID(i)]
	}
	return flat, peers
}

// TestFleetScrapeEightPeers drives traffic through a live 8-peer fabric,
// scrapes it, and checks the merged view against snapshots fetched by
// hand — the lesslog-top acceptance path.
func TestFleetScrapeEightPeers(t *testing.T) {
	addrs, _ := startCluster(t, 8, 3)

	cl := netnode.NewClient(addrs[0])
	names := []string{"e2e/a", "e2e/b", "e2e/c", "e2e/hot"}
	for _, n := range names {
		if err := cl.Insert(n, []byte("payload-"+n)); err != nil {
			t.Fatal(err)
		}
	}
	// Make one name hot: serve it repeatedly from rotating entry peers.
	for i := 0; i < 12; i++ {
		if _, err := netnode.NewClient(addrs[i%len(addrs)]).Get("e2e/hot"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Update("e2e/b", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Delete("e2e/c"); err != nil {
		t.Fatal(err)
	}

	scraped := Scrape(addrs)
	c := Aggregate(scraped, 3)
	if c.Peers != 8 || len(c.Unreachable) != 0 {
		t.Fatalf("scrape reached %d/8 peers, unreachable %v", c.Peers, c.Unreachable)
	}

	// Hand-merge the same snapshots and compare the derived views.
	var served, requests uint64
	handMerged := metrics.HistogramSnapshot{}
	for _, ps := range scraped {
		if ps.Err != nil {
			t.Fatalf("scrape of %s: %v", ps.Addr, ps.Err)
		}
		served += ps.Stat.Served
		requests += ps.Stat.Requests
		if snap, ok := ps.Stat.HandlerLatencyHist["get"]; ok {
			handMerged.Merge(&snap)
		}
	}
	if c.Served != served || c.Requests != requests {
		t.Fatalf("merged served/requests = %d/%d, hand-merged = %d/%d",
			c.Served, c.Requests, served, requests)
	}
	got := c.HandlerLatencyMS["get"]
	if got.Count != handMerged.Count ||
		got.P50 != handMerged.Quantile(0.5)*metrics.NsToMS ||
		got.P95 != handMerged.Quantile(0.95)*metrics.NsToMS ||
		got.P99 != handMerged.Quantile(0.99)*metrics.NsToMS {
		t.Fatalf("merged get dist %+v disagrees with hand-merged histogram (count %d)",
			got, handMerged.Count)
	}
	if len(c.TopNames) == 0 || c.TopNames[0].Name != "e2e/hot" {
		t.Fatalf("top names = %+v, want e2e/hot ranked first", c.TopNames)
	}
	if c.TopNames[0].Hits < 12 {
		t.Fatalf("hot name summed hits = %d, want >= the 12 gets", c.TopNames[0].Hits)
	}

	// Render must not panic and should mention the hot name.
	var buf bytes.Buffer
	Render(&buf, c)
	if !bytes.Contains(buf.Bytes(), []byte("e2e/hot")) {
		t.Fatalf("rendered view misses the hot name:\n%s", buf.String())
	}

	// The merged view's headline figures, as `lesslog-top -json` reports
	// them: the 12 gets are the only serves, and the get latency carries
	// its merged tail.
	if c.Served != 12 {
		t.Fatalf("merged served = %d, want the 12 gets sent", c.Served)
	}
	if got.Count == 0 || got.P99 <= 0 {
		t.Fatalf("merged get latency %+v has no P99", got)
	}
}
