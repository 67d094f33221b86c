package ptree

import (
	"reflect"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/msg"
	"lesslog/internal/xrand"
)

// fullView returns the tree of P(root) in a complete 16-node system.
func fullView(root bitops.PID) View {
	return NewView(root, liveness.NewAllLive(4, 16), 0)
}

// ancestorStops is the live-ancestor part of the get walk from origin:
// origin itself when live, then every stop Next reaches by HopForward.
func ancestorStops(v View, origin bitops.PID) []bitops.PID {
	var stops []bitops.PID
	if v.Live.IsLive(origin) {
		stops = append(stops, origin)
	}
	for cur, st := origin, (Route{Origin: origin}); ; {
		next, nst, act, ok := v.Next(cur, st)
		if !ok || act != msg.HopForward {
			return stops
		}
		stops = append(stops, next)
		cur, st = next, nst
	}
}

// fig3View returns the paper's Figure 3 world: the tree of P(4) in a
// 14-node system where P(0) and P(5) are dead.
func fig3View() View {
	live := liveness.NewAllLive(4, 16)
	live.SetDead(0)
	live.SetDead(5)
	return NewView(4, live, 0)
}

func TestPaperFigure2Routing(t *testing.T) {
	v := fullView(4)
	// P(8) -> P(0) -> P(4), the §2.1 forwarding chain.
	p, ok := v.AliveAncestor(8)
	if !ok || p != 0 {
		t.Fatalf("parent of P(8) = P(%d), want P(0)", p)
	}
	p, ok = v.AliveAncestor(0)
	if !ok || p != 4 {
		t.Fatalf("parent of P(0) = P(%d), want P(4)", p)
	}
	if _, ok = v.AliveAncestor(4); ok {
		t.Fatal("root must have no ancestor")
	}
	stops := ancestorStops(v, 8)
	want := []bitops.PID{8, 0, 4}
	if !reflect.DeepEqual(stops, want) {
		t.Fatalf("path from P(8) = %v, want %v", stops, want)
	}
}

func TestPaperChildrenListComplete(t *testing.T) {
	// §2.2: the children list of P(4) in a complete 16-node system is
	// (P(5), P(6), P(0), P(12)).
	v := fullView(4)
	got := v.ExpandedChildrenList(4)
	want := []bitops.PID{5, 6, 0, 12}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("children list of P(4) = %v, want %v", got, want)
	}
}

func TestPaperFigure3ChildrenList(t *testing.T) {
	// §3: with P(0) and P(5) dead, the children list of P(4) is
	// (P(6), P(7), P(1), P(12), P(13), P(8)), sorted by VID.
	v := fig3View()
	got := v.ExpandedChildrenList(4)
	want := []bitops.PID{6, 7, 1, 12, 13, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("children list of P(4) = %v, want %v", got, want)
	}
}

func TestPaperSection3ReplicationExample(t *testing.T) {
	// §3: P(4) and P(5) dead, 4 = ψ(f). Every request for f is forwarded
	// to P(6): P(6) must be the primary holder, and no live node has a
	// larger VID than P(6) in the tree of P(4).
	live := liveness.NewAllLive(4, 16)
	live.SetDead(4)
	live.SetDead(5)
	v := NewView(4, live, 0)
	h, ok := v.primaryHolder(0)
	if !ok || h != 6 {
		t.Fatalf("primary holder = P(%d), want P(6)", h)
	}
	if v.HasLiveGreaterVID(6) {
		t.Fatal("no live node should outrank P(6)")
	}
	if !v.HasLiveGreaterVID(7) {
		t.Fatal("P(6) outranks P(7)")
	}
	// §5.1 join example: P(5) joining has VID 1110 > VID(P(6)) = 1101.
	if v.VID(5) != 0b1110 || v.VID(6) != 0b1101 {
		t.Fatalf("VIDs: P(5)=%04b P(6)=%04b", v.VID(5), v.VID(6))
	}
}

func TestFindLiveNode(t *testing.T) {
	v := fig3View()
	// A live start returns itself.
	if p, ok := v.FindLiveNode(7); !ok || p != 7 {
		t.Fatalf("FindLiveNode(7) = %d, %v", p, ok)
	}
	// Dead P(5) (VID 1110): the next live VID below is 1101 -> P(6).
	if p, ok := v.FindLiveNode(5); !ok || p != 6 {
		t.Fatalf("FindLiveNode(5) = P(%d), want P(6)", p)
	}
	// Dead P(0) (VID 1011): next live below is 1010 -> P(1).
	if p, ok := v.FindLiveNode(0); !ok || p != 1 {
		t.Fatalf("FindLiveNode(0) = P(%d), want P(1)", p)
	}
	// All-dead system.
	dead := liveness.New(4)
	dv := NewView(4, dead, 0)
	if _, ok := dv.FindLiveNode(4); ok {
		t.Fatal("FindLiveNode on a dead system must fail")
	}
}

func TestAliveAncestorBypassesDead(t *testing.T) {
	v := fig3View()
	// In the tree of P(4): P(8) has VID 0011, parent VID 1011 = P(0),
	// which is dead; grandparent 1111 = P(4), alive.
	p, ok := v.AliveAncestor(8)
	if !ok || p != 4 {
		t.Fatalf("AliveAncestor(P(8)) = P(%d), want P(4)", p)
	}
	// Path skips the dead node entirely.
	want := []bitops.PID{8, 4}
	if got := ancestorStops(v, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("path = %v, want %v", got, want)
	}
}

// TestNextSteps walks the §3/§4 cases one step at a time: the ancestor
// walk, the FINDLIVENODE jump off a dead root, the migration to the
// requester's position in the next subtree (or its first live ancestor, or
// the primary there), the skip over a dead subtree, and the end of the walk.
func TestNextSteps(t *testing.T) {
	type step struct {
		next bitops.PID
		act  msg.HopAction
	}
	walk := func(v View, origin bitops.PID) []step {
		var out []step
		for cur, st := origin, (Route{Origin: origin}); ; {
			next, nst, act, ok := v.Next(cur, st)
			if !ok {
				return out
			}
			out = append(out, step{next, act})
			cur, st = next, nst
		}
	}
	check := func(name string, v View, origin bitops.PID, want ...step) {
		t.Helper()
		if got := walk(v, origin); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: walk from P(%d) = %v, want %v", name, origin, got, want)
		}
	}
	fwd := func(p bitops.PID) step { return step{p, msg.HopForward} }
	fb := func(p bitops.PID) step { return step{p, msg.HopFallback} }
	mig := func(p bitops.PID) step { return step{p, msg.HopMigrate} }

	// B = 0: the §2.1 chain, then nothing; with P(4) and P(5) dead, the
	// §3 jump to P(6).
	check("complete", fullView(4), 8, fwd(0), fwd(4))
	live := liveness.NewAllLive(4, 16)
	live.SetDead(4)
	live.SetDead(5)
	check("dead root", NewView(4, live, 0), 8, fwd(0), fb(6))

	// B = 1 in the tree of P(4): subtree VIDs are the upper three bits, so
	// P(8) (VID 0011) sits at subtree VID 001 of subtree 1, whose twin in
	// subtree 0 is VID 0010 = P(9).
	v := NewView(4, liveness.NewAllLive(4, 16), 1)
	if v.SubtreeID(8) != 1 || v.PID(0b0010) != 9 {
		t.Fatalf("setup: subtree of P(8) = %d, VID 0010 = P(%d)", v.SubtreeID(8), v.PID(0b0010))
	}
	check("migrate", v, 8, fwd(0), fwd(4), mig(9), fwd(1), fwd(5))
	// The twin dead: the jump lands on its first live ancestor.
	live = liveness.NewAllLive(4, 16)
	live.SetDead(9)
	check("dead entry", NewView(4, live, 1), 8, fwd(0), fwd(4), mig(1), fwd(5))
	// The twin and its ancestors dead: the jump lands on the primary, with
	// the fallback already taken there.
	live.SetDead(1)
	live.SetDead(5)
	check("dead chain", NewView(4, live, 1), 8, fwd(0), fwd(4), mig(7))
	// A dead subtree is skipped: with B = 2 the walk goes on to the next.
	live = liveness.NewAllLive(4, 16)
	v = NewView(4, live, 2)
	for q := bitops.PID(0); q < 16; q++ {
		if v.SubtreeID(q) == (v.SubtreeID(8)+1)&3 {
			live.SetDead(q)
		}
	}
	got := walk(v, 8)
	for _, s := range got {
		if !live.IsLive(s.next) {
			t.Fatalf("walk %v stops at a dead node", got)
		}
	}
	if n := len(got); n == 0 || v.SubtreeID(got[n-1].next) != (v.SubtreeID(8)+3)&3 {
		t.Fatalf("walk %v does not end in the last subtree", got)
	}
}

func TestNextAllocatesNothing(t *testing.T) {
	live := liveness.NewAllLive(6, 64)
	live.SetDead(4)
	v := NewView(4, live, 2)
	allocs := testing.AllocsPerRun(100, func() {
		for cur, st, ok := bitops.PID(8), (Route{Origin: 8}), true; ok; {
			cur, st, _, ok = v.Next(cur, st)
		}
	})
	if allocs != 0 {
		t.Fatalf("View.Next allocates %v times per walk", allocs)
	}
}

func TestVIDPIDRoundTrip(t *testing.T) {
	v := fullView(11)
	for p := bitops.PID(0); p < 16; p++ {
		if v.PID(v.VID(p)) != p {
			t.Fatalf("round trip failed for P(%d)", p)
		}
	}
	if v.VID(11) != bitops.RootVID(4) {
		t.Fatal("root must occupy the all-ones VID")
	}
}

func TestForEachDescendantMatchesBruteForce(t *testing.T) {
	r := xrand.New(3)
	for _, cfg := range []struct{ m, b int }{{4, 0}, {5, 0}, {6, 2}, {8, 3}} {
		live := liveness.NewAllLive(cfg.m, bitops.Slots(cfg.m))
		root := bitops.PID(r.Intn(bitops.Slots(cfg.m)))
		v := NewView(root, live, cfg.b)
		for p := bitops.PID(0); p < bitops.PID(bitops.Slots(cfg.m)); p++ {
			got := map[bitops.PID]bool{}
			v.ForEachDescendant(p, func(q bitops.PID) {
				if got[q] {
					t.Fatalf("descendant P(%d) visited twice", q)
				}
				got[q] = true
			})
			// Brute force: walk subtree children recursively.
			want := map[bitops.PID]bool{}
			var walk func(q bitops.PID)
			walk = func(q bitops.PID) {
				for _, c := range v.Children(q) {
					want[c] = true
					walk(c)
				}
			}
			walk(p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("m=%d b=%d root=%d p=%d: descendants %v, want %v",
					cfg.m, cfg.b, root, p, got, want)
			}
		}
	}
}

func TestLiveDescendantsAndProportions(t *testing.T) {
	v := fig3View()
	// P(6) has VID 1101 in the tree of P(4): subtree {1101, 1001, 0101,
	// 0001} -> PIDs {6, 2, 14, 10}, descendants {2, 14, 10}, all live.
	if got := v.LiveDescendants(6); got != 3 {
		t.Fatalf("LiveDescendants(P(6)) = %d, want 3", got)
	}
	// Root P(4): 15 positions below, 2 dead.
	if got := v.LiveDescendants(4); got != 13 {
		t.Fatalf("LiveDescendants(P(4)) = %d, want 13", got)
	}
	if got := v.LiveInSubtree(0); got != 14 {
		t.Fatalf("LiveInSubtree = %d, want 14", got)
	}
}

func TestSubtreeSplitOperations(t *testing.T) {
	// Figure 4's world: the tree of P(4) in a complete 16-node system
	// with b = 2 -> four 4-position subtrees.
	live := liveness.NewAllLive(4, 16)
	v := NewView(4, live, 2)
	seen := map[bitops.VID]int{}
	for p := bitops.PID(0); p < 16; p++ {
		seen[v.SubtreeID(p)]++
	}
	if len(seen) != 4 {
		t.Fatalf("subtree IDs = %v", seen)
	}
	for sid, n := range seen {
		if n != 4 {
			t.Fatalf("subtree %02b has %d members", sid, n)
		}
	}
	// Each subtree root has subtree VID 11 and no parent.
	for sid := bitops.VID(0); sid < 4; sid++ {
		r := v.SubtreeRoot(sid)
		if v.SubtreeVID(r) != 0b11 {
			t.Fatalf("subtree %02b root svid = %b", sid, v.SubtreeVID(r))
		}
		if _, ok := v.Parent(r); ok {
			t.Fatalf("subtree root P(%d) must have no parent", r)
		}
		if h, ok := v.primaryHolder(sid); !ok || h != r {
			t.Fatalf("primary holder of full subtree %02b = P(%d), want P(%d)", sid, h, r)
		}
	}
	// Routing never leaves the subtree.
	for p := bitops.PID(0); p < 16; p++ {
		sid := v.SubtreeID(p)
		for _, stop := range ancestorStops(v, p) {
			if v.SubtreeID(stop) != sid {
				t.Fatalf("path from P(%d) escaped subtree %02b", p, sid)
			}
		}
	}
}

func TestSubtreePrimaryWithDeadRoot(t *testing.T) {
	live := liveness.NewAllLive(4, 16)
	v := NewView(4, live, 2)
	sid := v.SubtreeID(4) // the root's own subtree
	live.SetDead(4)
	h, ok := v.primaryHolder(sid)
	if !ok {
		t.Fatal("subtree with live members reported dead")
	}
	if !live.IsLive(h) || v.SubtreeID(h) != sid {
		t.Fatalf("primary holder P(%d) invalid", h)
	}
	// It must be the max live subtree VID.
	for p := bitops.PID(0); p < 16; p++ {
		if live.IsLive(p) && v.SubtreeID(p) == sid && v.SubtreeVID(p) > v.SubtreeVID(h) {
			t.Fatalf("P(%d) outranks claimed primary P(%d)", p, h)
		}
	}
}

// TestPrimaries: one primary per subtree with a live node, in subtree
// order, each the subtree's primaryHolder; an emptied subtree drops out.
func TestPrimaries(t *testing.T) {
	live := liveness.NewAllLive(4, 16)
	v := NewView(4, live, 2)
	want := func() []bitops.PID {
		var out []bitops.PID
		for sid := bitops.VID(0); sid < 4; sid++ {
			if h, ok := v.primaryHolder(sid); ok {
				out = append(out, h)
			}
		}
		return out
	}
	if got := v.AppendPrimaries(nil); len(got) != 4 || !reflect.DeepEqual(got, want()) {
		t.Fatalf("full tree: primaries %v, want the four subtree roots %v", got, want())
	}
	emptied := v.SubtreeID(4)
	for p := bitops.PID(0); p < 16; p++ {
		if v.SubtreeID(p) == emptied {
			live.SetDead(p)
		}
	}
	got := v.AppendPrimaries(nil)
	if len(got) != 3 || !reflect.DeepEqual(got, want()) {
		t.Fatalf("one subtree dead: primaries %v, want %v", got, want())
	}
	for _, h := range got {
		if v.SubtreeID(h) == emptied {
			t.Fatalf("P(%d) named as the primary of the emptied subtree", h)
		}
	}
}

// TestPlacementRulesOnPaperTrees runs every placement rule on the paper's
// worked trees: §3's lookup tree of P(4) with P(0) and P(5) dead, and
// §5.1's join of P(5) into that tree with P(4) absent.
func TestPlacementRulesOnPaperTrees(t *testing.T) {
	// §3, with the root P(4) dead as well: every rule falls back to P(6)
	// (VID 1101), and a broadcast enters at P(4)'s children list.
	live := liveness.NewAllLive(4, 16)
	for _, p := range []bitops.PID{0, 4, 5} {
		live.SetDead(p)
	}
	v := NewView(4, live, 0)
	if got := v.AppendPrimaries(nil); !reflect.DeepEqual(got, []bitops.PID{6}) {
		t.Fatalf("§3 primaries = %v, want [6]", got)
	}
	if h, ok := v.PrimaryOf(8); !ok || h != 6 || !v.IsPrimary(6) || v.IsPrimary(7) {
		t.Fatalf("§3 PrimaryOf(P(8)) = P(%d), %v; want P(6), the one primary", h, ok)
	}
	if got, want := v.AppendBroadcastStarts(nil), []bitops.PID{6, 7, 1, 12, 13, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("§3 broadcast starts = %v, want P(4)'s children list %v", got, want)
	}
	if got := fig3View().AppendBroadcastStarts(nil); !reflect.DeepEqual(got, []bitops.PID{4}) {
		t.Fatalf("live root: broadcast starts = %v, want [4]", got)
	}

	// §5.1: P(4) and P(5) absent, so P(6) holds f. P(5) joins with VID
	// 1110 > 1101 and takes the copy; P(0) (VID 1011) would not have.
	live = liveness.NewAllLive(4, 16)
	live.SetDead(4)
	v = NewView(4, live, 0)
	if !v.JoinTakes(5, 6) {
		t.Fatal("§5.1: joining P(5) does not take P(6)'s copy")
	}
	live.SetDead(5)
	live.SetLive(0)
	if v.JoinTakes(0, 6) {
		t.Fatal("P(0) outranks no one yet takes P(6)'s copy")
	}

	// §5.3 at B = 1: subtree 1 of P(4)'s tree is the VIDs ending in 1.
	// Killing its primary P(4) moves the copy to P(6) (VID 1101), restored
	// from subtree 0's P(5); P(6) itself and a dead non-primary restore
	// nothing.
	live = liveness.NewAllLive(4, 16)
	live.SetDead(4)
	v = NewView(4, live, 1)
	if h, ok := v.RestoreTarget(4, 5); !ok || h != 6 {
		t.Fatalf("RestoreTarget(P(4), P(5)) = P(%d), %v; want P(6)", h, ok)
	}
	if _, ok := v.RestoreTarget(4, 6); ok {
		t.Fatal("a holder in the dead primary's own subtree restored its copy")
	}
	live.SetDead(0)
	if _, ok := v.RestoreTarget(0, 5); ok {
		t.Fatal("the death of a non-primary restored a copy")
	}
	// The leaver's target: subtree 1's next primary is P(6).
	if h, ok := v.PrimaryOf(4); !ok || h != 6 {
		t.Fatalf("PrimaryOf(P(4)) after it left = P(%d), %v; want P(6)", h, ok)
	}
}

func TestExpandedChildrenListProperties(t *testing.T) {
	// Randomized: the expanded children list must (1) contain only live
	// nodes, (2) be sorted by descending VID, (3) cover exactly the live
	// nodes whose first live *strict* ancestor is p (when p is the walk
	// base), for live p.
	r := xrand.New(17)
	for trial := 0; trial < 100; trial++ {
		m := 3 + r.Intn(4)
		live := liveness.New(m)
		for q := 0; q < bitops.Slots(m); q++ {
			if r.Bool(0.7) {
				live.SetLive(bitops.PID(q))
			}
		}
		root := bitops.PID(r.Intn(bitops.Slots(m)))
		v := NewView(root, live, 0)
		p := bitops.PID(r.Intn(bitops.Slots(m)))
		list := v.ExpandedChildrenList(p)
		seen := map[bitops.PID]bool{}
		for i, c := range list {
			if !live.IsLive(c) {
				t.Fatalf("dead node P(%d) in children list", c)
			}
			if seen[c] {
				t.Fatalf("duplicate P(%d) in children list", c)
			}
			seen[c] = true
			if i > 0 && v.VID(list[i-1]) <= v.VID(c) {
				t.Fatalf("children list not VID-descending: %v", list)
			}
		}
		// Membership: live q is in the list iff q is a proper descendant
		// of p and every node strictly between q and p is dead.
		vm := v.M()
		for q := bitops.PID(0); q < bitops.PID(bitops.Slots(m)); q++ {
			if !live.IsLive(q) || q == p {
				continue
			}
			if !bitops.IsAncestor(v.VID(p), v.VID(q), vm) {
				if seen[q] {
					t.Fatalf("non-descendant P(%d) in children list", q)
				}
				continue
			}
			between := true // all strictly-between nodes dead
			x := v.VID(q)
			for {
				pv, _ := bitops.ParentVID(x, vm)
				if pv == v.VID(p) {
					break
				}
				if live.IsLive(v.PID(pv)) {
					between = false
					break
				}
				x = pv
			}
			if seen[q] != between {
				t.Fatalf("membership of P(%d) = %v, want %v (trial %d)", q, seen[q], between, trial)
			}
		}
	}
}

func BenchmarkExpandedChildrenList(b *testing.B) {
	live := liveness.NewAllLive(10, 1024)
	r := xrand.New(8)
	for i := 0; i < 300; i++ {
		live.SetDead(bitops.PID(r.Intn(1024)))
	}
	v := NewView(4, live, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.ExpandedChildrenList(4)
	}
}

func BenchmarkAliveAncestor(b *testing.B) {
	live := liveness.NewAllLive(10, 1024)
	v := NewView(4, live, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.AliveAncestor(bitops.PID(i & 1023))
	}
}
