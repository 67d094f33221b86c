package core

import (
	"fmt"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/loadsim"
	"lesslog/internal/workload"
	"lesslog/internal/xrand"
)

// TestEngineAgreesWithLoadsim drives the message-level engine with a
// discrete workload matching the analytic simulator's rate vector and
// requires the per-holder serve counts to coincide exactly. This is the
// bridge between deliverable (a) — the operational library — and
// deliverable (d) — the figure-regenerating simulator.
func TestEngineAgreesWithLoadsim(t *testing.T) {
	const m = 6
	const target = bitops.PID(21)
	for _, deadFrac := range []float64{0, 0.25} {
		deadFrac := deadFrac
		t.Run(fmt.Sprintf("dead=%.2f", deadFrac), func(t *testing.T) {
			live := liveness.NewAllLive(m, 64)
			if deadFrac > 0 {
				workload.KillRandom(live, deadFrac, target, xrand.New(4))
			}
			// Engine with the same liveness pattern.
			c, err := New(Config{M: m, InitialNodes: 64, Hasher: hashring.Fixed(target), Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			for p := bitops.PID(0); p < 64; p++ {
				if !live.IsLive(p) {
					if err := c.Fail(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := c.Insert(live.LivePIDs()[0], "hot", []byte("x")); err != nil {
				t.Fatal(err)
			}

			// Analytic side: 3 req/s per live node.
			rates := workload.Even(float64(3*live.LiveCount()), live)
			sim := loadsim.New(loadsim.Config{
				M: m, Target: target, Cap: 1e9, Live: live, Rates: rates, Seed: 1,
			})

			// Mirror a few replicas on both sides, then compare.
			holder := sim.Primaries()[0]
			for i := 0; i < 3; i++ {
				rep, err := c.ReplicateFile(holder, "hot")
				if err != nil {
					t.Fatal(err)
				}
				sim.AddReplica(rep)
				holder = rep
			}

			// Discrete side: 3 gets from every live node.
			live.ForEachLive(func(p bitops.PID) {
				for i := 0; i < 3; i++ {
					if _, err := c.Get(p, "hot"); err != nil {
						t.Fatalf("get from P(%d): %v", p, err)
					}
				}
			})

			loads := sim.Loads()
			for _, h := range sim.Holders() {
				n, _ := c.Node(h)
				got := float64(n.Store().Hits("hot"))
				if got != loads[h] {
					t.Fatalf("holder P(%d): engine served %v, simulator says %v", h, got, loads[h])
				}
			}
		})
	}
}
