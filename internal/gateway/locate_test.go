package gateway

// Tests for the gateway's locate-then-fetch data plane: hint reuse and
// write invalidation, entry-peer-down hint purging, and the version-floor
// guarantee under concurrent reads and writes.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/netnode"
)

// startLocateFabric boots an n-peer fabric with B replication bits,
// returning addresses PID-order plus the peers themselves.
func startLocateFabric(t testing.TB, m, b, n int) ([]string, []*netnode.Peer) {
	t.Helper()
	addrs := make(map[bitops.PID]string, n)
	peers := make([]*netnode.Peer, 0, n)
	for i := 0; i < n; i++ {
		p, err := netnode.Listen(netnode.Config{
			PID: bitops.PID(i), M: m, B: b,
		})
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

func TestGatewayLocateDataPlane(t *testing.T) {
	addrs, _ := startLocateFabric(t, 4, 0, 16)
	// Cache disabled: every Get walks the data plane, so the hint counters
	// are observable per request. Floors stay enforced.
	g := newGateway(t, Config{Peers: addrs[:3], CacheSize: -1})
	if _, err := g.Insert("g/l", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Cold miss: one locate walk resolves the holder and leaves a hint.
	res, err := g.Get("g/l")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceFabric || !bytes.Equal(res.Data, []byte("v1")) {
		t.Fatalf("cold get = %+v", res)
	}
	c := g.Counters()
	if c.Locates.Value() != 1 || c.HintHits.Value() != 0 {
		t.Fatalf("cold counters: locates=%d hint_hits=%d, want 1/0",
			c.Locates.Value(), c.HintHits.Value())
	}
	if g.HintLen() != 1 {
		t.Fatalf("hint cache holds %d entries, want 1", g.HintLen())
	}

	// Warm miss: the hint answers without another locate.
	if _, err := g.Get("g/l"); err != nil {
		t.Fatal(err)
	}
	if c.Locates.Value() != 1 || c.HintHits.Value() != 1 {
		t.Fatalf("warm counters: locates=%d hint_hits=%d, want 1/1",
			c.Locates.Value(), c.HintHits.Value())
	}

	// An acknowledged update entered at the hinted holder refreshes the
	// hint in place (the ack proves the holder still carries the name, now
	// at the stamped version); the next read rides it without re-locating.
	wr, err := g.Update("g/l", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if g.HintLen() != 1 || c.HintRefreshes.Value() != 1 {
		t.Fatalf("post-update hint state: len=%d refreshes=%d, want 1/1",
			g.HintLen(), c.HintRefreshes.Value())
	}
	res, err = g.Get("g/l")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, []byte("v2")) || res.Version < wr.Version {
		t.Fatalf("post-update get = %+v, want v2 at version ≥ %d", res, wr.Version)
	}
	if c.Locates.Value() != 1 {
		t.Fatalf("post-update get re-located despite the refreshed hint (locates=%d)", c.Locates.Value())
	}

	// A delete still purges: the tombstoned copy proves nothing.
	if _, err := g.Delete("g/l"); err != nil {
		t.Fatal(err)
	}
	if g.HintLen() != 0 {
		t.Fatalf("hint survived the acknowledged delete (len=%d)", g.HintLen())
	}
}

// TestGatewayHintPurgeOnPeerDown covers the reroute bound: when the entry
// detector declares a peer dead, every route hint pointing at it is purged
// at once, and the next read resolves the surviving replica instead of
// burning a failed direct fetch per hinted name.
func TestGatewayHintPurgeOnPeerDown(t *testing.T) {
	addrs, peers := startLocateFabric(t, 4, 1, 16) // B=1: two copies
	g := newGateway(t, Config{Peers: addrs, CacheSize: -1})
	if _, err := g.Insert("g/ha", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	res, err := g.Get("g/ha") // warm the hint
	if err != nil {
		t.Fatal(err)
	}
	holder := int(res.ServedBy)
	if g.HintLen() != 1 {
		t.Fatalf("hint cache holds %d entries, want 1", g.HintLen())
	}

	// The hinted holder dies. Mark it dead fabric-wide through the peers'
	// own detectors (routing routes around it immediately), close it, and
	// let the gateway's entry detector reach its threshold.
	for _, p := range peers {
		if int(p.PID()) == holder {
			continue
		}
		th := p.Transport().Config().FailThreshold
		for i := 0; i < th; i++ {
			p.Detector().Fail(uint32(holder))
		}
	}
	peers[holder].Close()
	for i := 0; i < g.Transport().Config().FailThreshold; i++ {
		g.Detector().Fail(uint32(holder))
	}
	// The dead holder is pruned from every hinted replica set; the set
	// itself survives with the remaining copy, so the next read reroutes
	// without even paying a re-locate (pre-PR-9, single-holder hints were
	// dropped wholesale here and HintLen went to 0).
	if g.HintLen() != 1 {
		t.Fatalf("peer-down left %d hint entries, want the pruned survivor set", g.HintLen())
	}

	// The next read lands on the surviving copy.
	res, err = g.Get("g/ha")
	if err != nil {
		t.Fatal(err)
	}
	if int(res.ServedBy) == holder || !bytes.Equal(res.Data, []byte("survives")) {
		t.Fatalf("post-failure get = %+v, want the surviving replica", res)
	}
}

// TestGatewayFloorUnderConcurrentWrites races reads against acknowledged
// writes through the data plane (hints filling, purging, direct fetches)
// and asserts the gateway's guarantee: no read returns data older than a
// write the gateway had already acknowledged when the read began.
func TestGatewayFloorUnderConcurrentWrites(t *testing.T) {
	addrs, _ := startLocateFabric(t, 4, 0, 8)
	g := newGateway(t, Config{Peers: addrs[:2], CacheSize: -1})
	if _, err := g.Insert("g/floor", []byte("v0")); err != nil {
		t.Fatal(err)
	}

	var acked atomic.Uint64 // last version the writer saw acknowledged
	const rounds, readers = 25, 4
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			wr, err := g.Update("g/floor", []byte(fmt.Sprintf("v%d", i+1)))
			if err != nil {
				t.Error(err)
				return
			}
			acked.Store(wr.Version)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*2; i++ {
				floor := acked.Load()
				res, err := g.Get("g/floor")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Version < floor {
					t.Errorf("read returned version %d, acknowledged floor was %d", res.Version, floor)
					return
				}
			}
		}()
	}
	wg.Wait()
}
