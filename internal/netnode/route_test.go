package netnode

// The fabric's get walk against ptree.View.Next: every traced route is the
// Next loop run on the true liveness state, migrations included, and the
// entry peer's own replay of that loop flags a route taken on a stale view.

import (
	"fmt"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/transport"
	"lesslog/internal/xrand"
)

// predictRoute is the get walk ptree predicts from origin: the loop of
// View.Next until a stop for which holds is true, as the hop records a
// traced get carries (each stop's PID and the step it took; the server's
// hop is HopServe). It returns nil when the walk runs out of subtrees.
func predictRoute(v ptree.View, origin bitops.PID, holds func(bitops.PID) bool) []msg.Hop {
	var hops []msg.Hop
	cur, st := origin, ptree.Route{Origin: origin}
	for !holds(cur) {
		next, nst, act, ok := v.Next(cur, st)
		if !ok {
			return nil
		}
		hops = append(hops, msg.Hop{PID: uint32(cur), Action: act})
		cur, st = next, nst
	}
	return append(hops, msg.Hop{PID: uint32(cur), Action: msg.HopServe})
}

// holds is the holder predicate of a fixed PID set.
func holds(pids ...bitops.PID) func(bitops.PID) bool {
	return func(q bitops.PID) bool {
		for _, p := range pids {
			if p == q {
				return true
			}
		}
		return false
	}
}

// TestTracedRoutesFollowNext crashes peers of an M = 4, B = 1 fabric through
// the shared fault table and strips one subtree's copy of each name, then
// checks every traced get from every survivor: its hops are exactly the
// Next loop's PIDs and actions on the true liveness state, its hop count is
// the loop's step count, and some routes migrate (§4).
func TestTracedRoutesFollowNext(t *testing.T) {
	sys := startFaultSystem(t, 4, 1, 16, hashring.Default, tightTransport())
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, name := range names {
		if err := NewClient(sys.addr(0)).Insert(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(7)
	live := liveness.NewAllLive(4, 16)
	for live.LiveCount() > 13 {
		c := bitops.PID(rng.Intn(16))
		if !live.IsLive(c) || c == 0 {
			continue
		}
		live.SetDead(c)
		sys.faults.Add(transport.Rule{Addr: sys.addr(c), Drop: true})
		markDeadEverywhere(sys.peers, c)
	}
	for i, name := range names {
		if i%2 == 0 { // every other name loses subtree 0's copy
			v := ptree.NewView(hashring.Default.Target(name, 4), live, 1)
			if h, ok := v.PrimaryOf(v.SubtreeRoot(0)); ok {
				sys.peers[h].store.Delete(name)
			}
		}
	}

	migrated := 0
	for _, name := range names {
		v := ptree.NewView(hashring.Default.Target(name, 4), live, 1)
		has := func(q bitops.PID) bool { return live.IsLive(q) && sys.peers[q].store.Has(name) }
		live.ForEachLive(func(origin bitops.PID) {
			want := predictRoute(v, origin, has)
			res, err := NewClient(sys.addr(origin)).GetTraced(name)
			if want == nil {
				if err == nil {
					t.Fatalf("%s from P(%d): served by P(%d), Next loop finds no copy", name, origin, res.ServedBy)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s from P(%d): %v (Next loop predicts %v)", name, origin, err, want)
			}
			got := make([]msg.Hop, len(res.Path))
			for i, h := range res.Path {
				got[i] = msg.Hop{PID: h.PID, Action: h.Action}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s from P(%d): traced route %v, Next loop %v", name, origin, got, want)
			}
			if res.Hops != len(want)-1 {
				t.Fatalf("%s from P(%d): %d hops reported, Next loop took %d", name, origin, res.Hops, len(want)-1)
			}
			for _, h := range want {
				if h.Action == msg.HopMigrate {
					migrated++
					break
				}
			}
		})
	}
	if migrated == 0 {
		t.Fatal("no route migrated: the scenario does not reach §4")
	}
}

// TestRouteDivergenceCounted checks route_divergence at the entry peer: zero
// on a healthy M = 4, B = 1 fabric, and one when a peer on the route missed
// the KindRegister of a joiner the entry peer heard — the entry predicts a
// hop through the joiner that the stale peer routes around.
func TestRouteDivergenceCounted(t *testing.T) {
	full := ptree.NewView(4, liveness.NewAllLive(4, 16), 1)
	// entry → stale → joiner → … : the stale peer's parent is the joiner,
	// and the joiner is no subtree root, so it never holds the copy.
	var entry, stale, joiner bitops.PID
	found := false
	for e := bitops.PID(0); e < 16 && !found; e++ {
		x, ok := full.Parent(e)
		if !ok {
			continue
		}
		j, ok := full.Parent(x)
		if !ok {
			continue
		}
		if _, ok := full.Parent(j); ok {
			entry, stale, joiner, found = e, x, j, true
		}
	}
	if !found {
		t.Fatal("no four-deep chain in the tree of P(4)")
	}
	var pids []bitops.PID
	for p := bitops.PID(0); p < 16; p++ {
		if p != joiner {
			pids = append(pids, p)
		}
	}
	faults := transport.NewFaults()
	cfg := Config{M: 4, B: 1, Hasher: hashring.Fixed(4), Faults: faults}
	peers := startSystemWith(t, pids, cfg)
	if err := NewClient(peers[entry].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	divergence := func() uint64 {
		var n uint64
		for _, p := range peers {
			n += p.StatSnapshot().RouteDivergence
		}
		return n
	}

	for _, p := range pids {
		if _, err := NewClient(peers[p].Addr()).GetTraced("f"); err != nil {
			t.Fatalf("get from P(%d): %v", p, err)
		}
	}
	if n := divergence(); n != 0 {
		t.Fatalf("route_divergence = %d on a healthy fabric", n)
	}

	faults.Add(transport.Rule{Addr: peers[stale].Addr(), Kind: msg.KindRegister, Drop: true})
	cfg.PID = joiner
	j, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	var boot bitops.PID
	for boot == entry || boot == stale {
		boot++
	}
	if err := j.Join(peers[boot].Addr()); err != nil {
		t.Fatal(err)
	}
	if !peers[entry].rt().live.IsLive(joiner) || peers[stale].rt().live.IsLive(joiner) {
		t.Fatal("setup: the entry peer must know the joiner and the stale peer must not")
	}
	res, err := NewClient(peers[entry].Addr()).GetTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if n := divergence(); n != 1 {
		t.Fatalf("route_divergence = %d after a get over a stale peer (route %v), want 1", n, hopPIDs(res.Path))
	}
	if got := peers[entry].StatSnapshot().RouteDivergence; got != 1 {
		t.Fatalf("entry peer counts %d divergences, want 1", got)
	}
}
