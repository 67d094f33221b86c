package gateway

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"lesslog/internal/netnode"
)

// TestColdGatewayReadAllocBudget pins what one cold read costs end to end,
// process-wide — gateway, locate client, entry peer, the locate walk, the
// holder's fetch — for a 4 KiB name in neither the gateway's cache nor its
// hint cache, both full: the miss path the ledger's cold_4k workload takes
// on most of its ops. What it may allocate is the body it caches and the
// fabric's own answers; a transfer, hint-set or flight allocation added
// back to the miss path fails here rather than on a ledger run.
func TestColdGatewayReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		capacity = 16  // both caches, so every measured read evicts
		runs     = 400 // measured reads, each of a name read once
	)
	addrs, _ := startLocateFabric(t, 3, 1, 8)
	plain := netnode.NewClient(addrs[5])
	body := make([]byte, 4<<10)
	names := make([]string, 2*capacity+runs)
	for i := range names {
		names[i] = fmt.Sprintf("cold/%d", i)
		if err := plain.Insert(names[i], body); err != nil {
			t.Fatal(err)
		}
	}
	g := newGateway(t, Config{Peers: addrs, CacheSize: capacity, HintSize: capacity})
	// The gateway's own insert fetches the placement snapshot a running
	// gateway has, and the first reads fill both caches.
	if _, err := g.Insert("cold/warm", body); err != nil {
		t.Fatal(err)
	}
	next := 0
	read := func() {
		res, err := g.Get(names[next])
		if err != nil || len(res.Data) != len(body) || res.Source != SourceFabric {
			t.Fatalf("get %s: %d bytes from %v, %v", names[next], len(res.Data), res.Source, err)
		}
		next++
	}
	for next < 2*capacity {
		read()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("cold read: %.0f B, %.1f allocs", perRead, allocs)
	// Measured 4996–5007 B and 18.2–18.3 allocs over ten runs (6758 B and
	// 33.2 allocs before a fetch chunk got its own allocation, the locate
	// answer one decode and the caches and flights recycled slots), pinned
	// with 10% of headroom.
	const budget, allocBudget = 5500, 20
	if perRead > budget || allocs > allocBudget {
		t.Errorf("cold gateway read allocated %.0f B in %.1f allocs, budget %d B in %d", perRead, allocs, budget, allocBudget)
	}
}

// TestGatewayUpdateReusesSupersededBody: a 1 MiB update through the
// gateway's wire listener arrives in a frame buffer of its own, which the
// write-through cache entry keeps. The entry gives it back when the next
// update supersedes it, so that update's frame is read into it, and a warm
// update allocates a small fraction of one body instead of one per update.
// The last body is then served from the cache, its frame buffer intact.
func TestGatewayUpdateReusesSupersededBody(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		name = "reuse/gw"
		size = 1 << 20
		runs = 20
	)
	addrs, _ := startLocateFabric(t, 2, 1, 4) // two holders per name
	g := newGateway(t, Config{Peers: addrs})
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := netnode.NewClient(srv.Addr())
	bodies := [2][]byte{chunkPayload(size, 98), chunkPayload(size, 99)}
	if err := cl.Insert(name, bodies[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	update := func() {
		i++
		if n, err := cl.Update(name, bodies[i%2]); err != nil || n != 2 {
			t.Fatalf("update touched %d copies, %v", n, err)
		}
	}
	update() // warms the connections, the hints and the free list
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		update()
	}
	runtime.ReadMemStats(&after)
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("1 MiB update through the gateway: %.0f B/op", perUpdate)
	if perUpdate > 256<<10 {
		t.Errorf("1 MiB update through the gateway allocated %.0f B/op, want under 256 KiB: a superseded cache entry kept its frame", perUpdate)
	}
	hits := g.Counters().Hits.Value()
	res, err := cl.Get(name)
	if err != nil || !bytes.Equal(res.Data, bodies[i%2]) {
		t.Fatalf("get after the updates: %d bytes, %v; want the last update", len(res.Data), err)
	}
	if g.Counters().Hits.Value() != hits+1 {
		t.Fatal("the last update was not served from the write-through cache")
	}
}
