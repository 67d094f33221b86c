package netnode

import (
	"fmt"
	"reflect"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/core"
	"lesslog/internal/hashring"
)

// TestMaintainMatchesEngine drives a 16-peer fabric and a core.Cluster of
// the same shape with the same per-origin gets, then closes each window on
// both: MaintainOnce on every peer in PID order against Cluster.Maintain.
// Both run the one §6 window rule (store.EndWindow), so the placements
// (holder → replica) and the holder sets must agree after every window.
//
// Crowd windows only replicate and quiet windows only evict. A window that
// did both would differ by design: the fabric closes windows peer by peer,
// so a replica placed on a peer later in the order would be judged on a
// window it spent no time in, which the engine's single close never does.
func TestMaintainMatchesEngine(t *testing.T) {
	const n = 16
	peers := startSystem(t, 4, 0, allPIDs(n), hashring.Fixed(4))
	eng, err := core.New(core.Config{M: 4, InitialNodes: n, Hasher: hashring.Fixed(4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"hot", "warm"}
	for _, name := range names {
		if err := NewClient(peers[0].Addr()).Insert(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Insert(0, name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	// Plain relaying clients: every get walks the lookup tree, as the
	// engine's does.
	clients := make([]*Client, n)
	for pid := range clients {
		clients[pid] = NewClient(peers[bitops.PID(pid)].Addr())
	}

	window := func(w, stride int, threshold, evictBelow uint64) {
		// Every stride-th origin asks for "hot", every 2·stride-th also
		// for "warm".
		for o := 0; o < n; o += stride {
			for i, name := range names {
				if o%(stride<<i) != 0 {
					continue
				}
				got, err := clients[o].Get(name)
				if err != nil {
					t.Fatalf("window %d: fabric get %s from P(%d): %v", w, name, o, err)
				}
				want, err := eng.Get(bitops.PID(o), name)
				if err != nil {
					t.Fatalf("window %d: engine get %s from P(%d): %v", w, name, o, err)
				}
				if bitops.PID(got.ServedBy) != want.ServedBy {
					t.Fatalf("window %d: get %s from P(%d) served by P(%d) on the fabric, P(%d) in the engine",
						w, name, o, got.ServedBy, want.ServedBy)
				}
			}
		}
		var fabric, engine []string
		for pid := bitops.PID(0); pid < n; pid++ {
			if placed, ok := peers[pid].MaintainOnce(threshold, evictBelow); ok {
				fabric = append(fabric, fmt.Sprintf("P(%d)→P(%d)", pid, placed))
			}
		}
		placements, _ := eng.Maintain(threshold, evictBelow)
		for _, pl := range placements {
			engine = append(engine, fmt.Sprintf("P(%d)→P(%d)", pl.Holder, pl.Replica))
		}
		if !reflect.DeepEqual(fabric, engine) {
			t.Fatalf("window %d: fabric placed %v, engine placed %v", w, fabric, engine)
		}
		for _, name := range names {
			var held []bitops.PID
			for pid := bitops.PID(0); pid < n; pid++ {
				if peers[pid].store.Has(name) {
					held = append(held, pid)
				}
			}
			if want := eng.HoldersOf(name); !reflect.DeepEqual(held, want) {
				t.Fatalf("window %d: %s held by %v on the fabric, %v in the engine", w, name, held, want)
			}
		}
		t.Logf("window %d: placed %v, hot on %v", w, fabric, eng.HoldersOf("hot"))
	}

	w := 0
	for ; w < 3; w++ { // crowd: replicate over 3 gets, evict nothing
		window(w, 1, 3, 0)
	}
	for ; w < 5; w++ { // quiet: replicate nothing, evict below 2 gets
		window(w, 2, 1000, 2)
	}
}
