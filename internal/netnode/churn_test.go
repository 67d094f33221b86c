package netnode

// Sustained-churn end-to-end harness (docs/REPAIR.md): the same
// crash/rejoin schedule runs twice over a real B=1 wire system — once
// with the anti-entropy repair loop off (the control: §5's one-at-a-time
// self-organization, which sustained churn defeats) and once with every
// peer repairing in the background. The control run must lose names; the
// repair run must lose none and re-reach full replication inside a
// bounded window after every disruption, including a correlated
// same-parity double-crash with scripted repair-RPC loss driven through
// transport.Churn. The test logs the measured time-to-full-replication
// per disruption and the control run's loss count.

import (
	"fmt"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/repair"
	"lesslog/internal/transport"
)

// churnConfig is the repair tuning the harness runs every peer with:
// fast rounds so convergence is measured in tens of milliseconds, whole
// inventory per round, no bandwidth cap (budget behavior has its own
// tests), a digest exchange every other round.
func churnConfig() repair.Config {
	return repair.Config{
		Interval:    20 * time.Millisecond,
		SampleSize:  -1,
		Budget:      -1,
		DigestEvery: 2,
	}
}

// churnHarness wraps a faultSystem with the operations a churn schedule
// is made of: silent process crashes that lose the local store, empty
// rejoins, and replication polling.
type churnHarness struct {
	t      *testing.T
	sys    *faultSystem
	names  []string
	repair bool
	stops  map[bitops.PID]func()
}

func newChurnHarness(t *testing.T, withRepair bool) *churnHarness {
	t.Helper()
	h := &churnHarness{
		t:      t,
		sys:    startFaultSystem(t, 4, 1, 16, hashring.FNV{}, tightTransport()),
		repair: withRepair,
		stops:  map[bitops.PID]func(){},
	}
	cl := NewClient(h.sys.addr(0))
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("churn/%02d", i)
		if err := cl.Insert(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
		h.names = append(h.names, name)
	}
	if withRepair {
		for pid, p := range h.sys.peers {
			h.stops[pid] = p.StartRepair(churnConfig())
		}
	}
	return h
}

// holders returns the PIDs currently holding name.
func (h *churnHarness) holders(name string) []bitops.PID {
	var out []bitops.PID
	for pid, p := range h.sys.peers {
		if p.store.Has(name) {
			out = append(out, pid)
		}
	}
	return out
}

// lost returns the names with no surviving copy anywhere.
func (h *churnHarness) lost() []string {
	var out []string
	for _, name := range h.names {
		if len(h.holders(name)) == 0 {
			out = append(out, name)
		}
	}
	return out
}

// wipe crashes pid silently — no failure report, the store dies with the
// process — and rejoins it as an empty peer under the same PID, the §8
// churn shape one polite §5.2 handoff at a time cannot see coming.
func (h *churnHarness) wipe(pid bitops.PID) {
	h.t.Helper()
	old := h.sys.peers[pid]
	old.Close()
	bootstrap := ""
	for q, p := range h.sys.peers {
		if q != pid {
			bootstrap = p.Addr()
			break
		}
	}
	np, err := Listen(Config{
		PID: pid, M: 4, B: 1, Hasher: hashring.FNV{},
		Transport: h.sys.tcfg, Faults: h.sys.faults,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { np.Close() })
	if err := np.Join(bootstrap); err != nil {
		h.t.Fatal(err)
	}
	h.sys.peers[pid] = np
	if h.repair {
		h.stops[pid] = np.StartRepair(churnConfig())
	}
}

// awaitFullReplication polls until every name has both subtree copies
// again, returning how long that took and whether it happened before the
// deadline.
func (h *churnHarness) awaitFullReplication(deadline time.Duration) (time.Duration, bool) {
	start := time.Now()
	for {
		short := 0
		for _, name := range h.names {
			if len(h.holders(name)) < 2 {
				short++
			}
		}
		if short == 0 {
			return time.Since(start), true
		}
		if time.Since(start) > deadline {
			return time.Since(start), false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// repairTotals sums the repair counters across the current peer set.
func (h *churnHarness) repairTotals() map[string]float64 {
	out := map[string]float64{}
	for _, p := range h.sys.peers {
		out["repaired"] += float64(p.stats.Repaired.Load())
		out["repair_pulled"] += float64(p.stats.RepairPulled.Load())
		out["digest_bytes"] += float64(p.stats.DigestBytes.Load())
	}
	return out
}

func TestChurnRepairE2E(t *testing.T) {
	const convergeWithin = 8 * time.Second

	// The schedule wipes, in turn, both holders of the first file: its
	// lookup-tree primaries, one per subtree. Every name sharing either
	// holder erodes too; any name sharing both is guaranteed lost in the
	// control run.
	victimsOf := func(h *churnHarness) [2]bitops.PID {
		hs := h.holders(h.names[0])
		if len(hs) != 2 {
			t.Fatalf("holders(%s) = %v, want one per subtree", h.names[0], hs)
		}
		return [2]bitops.PID{hs[0], hs[1]}
	}

	// Control: no repair. Wiping one holder leaves the name on a single
	// copy nobody is responsible for noticing; wiping the second loses it.
	control := newChurnHarness(t, false)
	cv := victimsOf(control)
	control.wipe(cv[0])
	control.wipe(cv[1])
	controlLost := control.lost()
	if len(controlLost) == 0 {
		t.Fatal("control run lost nothing; the schedule is not harsh enough to prove repair matters")
	}
	control.sys.closeAll()

	// Repair on: the identical wipe sequence, plus a correlated
	// double-crash of two same-parity peers (B=1 parity puts them in the
	// same subtree of every tree, so both copies of a name are never dark
	// at once) with scripted loss of in-flight repair probes.
	h := newChurnHarness(t, true)
	rv := victimsOf(h)
	var ttfr [3]time.Duration
	var ok bool
	h.wipe(rv[0])
	if ttfr[0], ok = h.awaitFullReplication(convergeWithin); !ok {
		t.Fatalf("replication not restored %v after first wipe; lost=%v", ttfr[0], h.lost())
	}
	h.wipe(rv[1])
	if ttfr[1], ok = h.awaitFullReplication(convergeWithin); !ok {
		t.Fatalf("replication not restored %v after second wipe; lost=%v", ttfr[1], h.lost())
	}

	even := [2]bitops.PID{(rv[0] &^ 1) ^ 2, (rv[0] &^ 1) ^ 4} // same parity as each other, never both holders
	churn := transport.NewChurn(h.sys.faults, []transport.ChurnEvent{
		{
			Crash:     []string{h.sys.addr(even[0]), h.sys.addr(even[1])},
			LoseKind:  msg.KindHas,
			LoseTimes: 25,
		},
		{Rejoin: []string{h.sys.addr(even[0]), h.sys.addr(even[1])}},
	})
	defer churn.Reset()
	churn.Advance()
	time.Sleep(150 * time.Millisecond) // repair grinds against the partition
	churn.Advance()
	if ttfr[2], ok = h.awaitFullReplication(convergeWithin); !ok {
		t.Fatalf("replication not restored %v after correlated crash; lost=%v", ttfr[2], h.lost())
	}

	if lost := h.lost(); len(lost) != 0 {
		t.Fatalf("repair run lost %v", lost)
	}
	totals := h.repairTotals()
	if totals["repaired"]+totals["repair_pulled"] == 0 {
		t.Fatal("zero copies repaired; the run did not exercise the repair path")
	}
	if totals["digest_bytes"] == 0 {
		t.Fatal("no digest traffic; the run did not exercise the digest path")
	}

	t.Logf("control lost %d/%d names; repair lost 0, ttfr wipe1=%v wipe2=%v corr=%v",
		len(controlLost), len(control.names), ttfr[0], ttfr[1], ttfr[2])
}
