package netnode

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/core"
)

// TestMembershipMatchesEngine runs the §5 moves on a 16-slot fabric (M = 4,
// B = 1, default hasher) and on a core.Cluster of the same shape, starting
// with three slots absent: a join, a graceful leave, a fail announced by
// ReportFailure, the failed slot's rejoin and a second join. Both derive
// every move from the same ptree rules, so after each step — once every
// live peer holds the same status word — each name must sit on the same
// (holder, kind) set in both, and the engine's invariants must hold.
func TestMembershipMatchesEngine(t *testing.T) {
	const m, b, slots = 4, 1, 16
	absent := []bitops.PID{3, 9, 14}
	var pids []bitops.PID
	for _, pid := range allPIDs(slots) {
		if pid != 3 && pid != 9 && pid != 14 {
			pids = append(pids, pid)
		}
	}
	peers := startSystem(t, m, b, pids, nil)
	eng, err := core.New(core.Config{M: m, B: b, InitialNodes: slots, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range absent {
		if err := eng.Leave(pid); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("member/%02d", i)
		origin := pids[i%len(pids)]
		if err := NewClient(peers[origin].Addr()).Insert(names[i], []byte(names[i])); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Insert(origin, names[i], []byte(names[i])); err != nil {
			t.Fatal(err)
		}
	}

	// busiest is the live peer holding the most copies, so the leave and
	// the fail below each move something.
	busiest := func() bitops.PID {
		best, most := bitops.PID(0), -1
		for _, pid := range allPIDs(slots) {
			if p, ok := peers[pid]; ok && p.store.Len() > most {
				best, most = pid, p.store.Len()
			}
		}
		return best
	}
	join := func(pid bitops.PID) {
		t.Helper()
		p, err := Listen(Config{PID: pid, M: m, B: b})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		var bootstrap *Peer
		for _, q := range peers {
			bootstrap = q
			break
		}
		if err := p.Join(bootstrap.Addr()); err != nil {
			t.Fatal(err)
		}
		peers[pid] = p
		if err := eng.Join(pid); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		want := eng.Live()
		deadline := time.Now().Add(5 * time.Second)
		for pid, p := range peers {
			for !p.rt().live.Equal(want) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: P(%d)'s status word never matched the engine's", step, pid)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		for _, name := range names {
			var fabric, engine []string
			for _, pid := range allPIDs(slots) {
				if p, ok := peers[pid]; ok {
					if k, held := p.store.KindOf(name); held {
						fabric = append(fabric, fmt.Sprintf("P(%d)/%v", pid, k))
					}
				}
				if n, ok := eng.Node(pid); ok {
					if k, held := n.Store().KindOf(name); held {
						engine = append(engine, fmt.Sprintf("P(%d)/%v", pid, k))
					}
				}
			}
			if !reflect.DeepEqual(fabric, engine) {
				t.Fatalf("%s: %s held at %v on the fabric, %v in the engine", step, name, fabric, engine)
			}
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		t.Logf("%s: %d copies moved so far", step, eng.Stats().FilesMigrated)
	}
	check("start")

	join(9)
	check("join P(9)")

	leaver := busiest()
	if err := peers[leaver].Leave(); err != nil {
		t.Fatal(err)
	}
	peers[leaver].Close()
	delete(peers, leaver)
	if err := eng.Leave(leaver); err != nil {
		t.Fatal(err)
	}
	check(fmt.Sprintf("leave P(%d)", leaver))

	victim := busiest()
	peers[victim].Close()
	delete(peers, victim)
	for _, p := range peers {
		p.ReportFailure(victim)
		break
	}
	if err := eng.Fail(victim); err != nil {
		t.Fatal(err)
	}
	check(fmt.Sprintf("fail P(%d)", victim))

	join(victim)
	check(fmt.Sprintf("rejoin P(%d)", victim))

	join(14)
	check("join P(14)")

	if got := eng.Stats().FilesMigrated; got == 0 {
		t.Fatal("no step moved a copy")
	}
}
