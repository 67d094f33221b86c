package netnode

import (
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/store"
)

func TestMaintainOnceReplicatesHotFile(t *testing.T) {
	eachBodySize(t, func(t *testing.T, body []byte) {
		peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
		if err := NewClient(peers[0].Addr()).Insert("hot", body); err != nil {
			t.Fatal(err)
		}
		want, _ := peers[4].store.Peek("hot")
		// Hammer the target from its own subtree so only P(4) counts hits.
		cl := readerFor(peers[4].Addr(), body)
		for i := 0; i < 12; i++ {
			if _, err := cl.Get("hot"); err != nil {
				t.Fatal(err)
			}
		}
		placed, ok := peers[4].MaintainOnce(10, 0)
		if !ok {
			t.Fatal("overloaded peer did not replicate")
		}
		// §2.2: the first replica goes to the head of P(4)'s children list,
		// P(5) — as a replica, so §6 can evict it and a leave discards it.
		if placed != 5 {
			t.Fatalf("replica at P(%d), want P(5)", placed)
		}
		wantCopy(t, peers[5], want, store.Replica)
		wantUncharged(t, peers[4], 5)
		// A second maintenance round places the next replica at P(6).
		for i := 0; i < 12; i++ {
			cl.Get("hot")
		}
		placed, ok = peers[4].MaintainOnce(10, 0)
		if !ok || placed != 6 {
			t.Fatalf("second replica at P(%d), %v; want P(6)", placed, ok)
		}
		if got := peers[4].Stats().PlacedReplicate.Load(); got != 2 {
			t.Fatalf("P(4) counts placed_replicate=%d, want 2", got)
		}
	})
}

func TestMaintainOnceBelowThresholdDoesNothing(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	NewClient(peers[0].Addr()).Insert("f", []byte("x"))
	NewClient(peers[4].Addr()).Get("f")
	if _, ok := peers[4].MaintainOnce(10, 0); ok {
		t.Fatal("replicated below threshold")
	}
}

func TestMaintainEvictsColdReplicas(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	NewClient(peers[0].Addr()).Insert("f", []byte("x"))
	NewClient(peers[5].Addr()).Store("f", []byte("x"), 1, true)
	if !peers[5].store.Has("f") {
		t.Fatal("setup failed")
	}
	// The replica served nothing this window: evicted.
	peers[5].MaintainOnce(1000, 1)
	if peers[5].store.Has("f") {
		t.Fatal("cold replica survived maintenance")
	}
	// Inserted copies are never evicted.
	peers[4].MaintainOnce(1000, 1000)
	if !peers[4].store.Has("f") {
		t.Fatal("inserted copy evicted")
	}
}

func TestKindHasProbe(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	NewClient(peers[0].Addr()).Store("x", []byte("1"), 1, false)
	resp, err := NewClient(peers[0].Addr()).Do(&msg.Request{Kind: msg.KindHas, Name: "x"}, false)
	if err != nil || !resp.OK {
		t.Fatalf("has(x) = %+v, %v", resp, err)
	}
	resp, err = NewClient(peers[0].Addr()).Do(&msg.Request{Kind: msg.KindHas, Name: "y"}, false)
	if err != nil || resp.OK {
		t.Fatalf("has(y) = %+v, %v", resp, err)
	}
	// Probes must not count as accesses for the eviction counters.
	if peers[0].store.Hits("x") != 0 {
		t.Fatal("KindHas counted an access")
	}
}

func TestStartMaintenanceLoop(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	NewClient(peers[0].Addr()).Insert("hot", []byte("x"))
	stop := peers[4].StartMaintenance(50*time.Millisecond, 10, 0)
	defer stop()
	// Keep the file hot until a tick sees it: a fixed burst can straddle
	// two windows (or, under -race, outlast one) and never cross the
	// threshold in either.
	cl := NewClient(peers[4].Addr())
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if peers[5].HasFile("hot") {
			stop()
			stop() // idempotent
			return
		}
		cl.Get("hot")
	}
	t.Fatal("maintenance loop never replicated the hot file")
}

func TestDurablePeerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PID: 3, M: 4, Hasher: hashring.Fixed(3), DataDir: dir}
	p1, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1.SetAddrs(map[bitops.PID]string{3: p1.Addr()})
	if err := NewClient(p1.Addr()).Insert("persist-me", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil { // checkpoint happens here
		t.Fatal(err)
	}
	// "Restart" the peer from the same directory.
	p2, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.Close() })
	p2.SetAddrs(map[bitops.PID]string{3: p2.Addr()})
	res, err := NewClient(p2.Addr()).Get("persist-me")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != "still here" {
		t.Fatalf("restored data = %q", res.Data)
	}
}

func TestCheckpointWithoutDataDir(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	if err := peers[0].Checkpoint(); err == nil {
		t.Fatal("checkpoint without a data dir succeeded")
	}
}

func TestCloseStopsMaintenance(t *testing.T) {
	p, err := Listen(Config{PID: 1, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	p.SetAddrs(map[bitops.PID]string{1: p.Addr()})
	p.StartMaintenance(time.Hour, 1, 1) // never ticks; Close must not hang
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a maintenance loop running")
	}
}
