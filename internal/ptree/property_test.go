package ptree

import (
	"slices"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/xrand"
)

// randomView builds a view with random root, b and liveness.
func randomView(rng *xrand.Rand, m int) (View, *liveness.Set) {
	live := liveness.New(m)
	for p := 0; p < bitops.Slots(m); p++ {
		if rng.Bool(0.6) {
			live.SetLive(bitops.PID(p))
		}
	}
	b := rng.Intn(m) // 0..m-1
	root := bitops.PID(rng.Intn(bitops.Slots(m)))
	return NewView(root, live, b), live
}

func TestPropertyHasLiveGreaterVID(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(5)
		v, live := randomView(rng, m)
		for p := bitops.PID(0); p < bitops.PID(bitops.Slots(m)); p++ {
			want := false
			for q := bitops.PID(0); q < bitops.PID(bitops.Slots(m)); q++ {
				if live.IsLive(q) && v.SubtreeID(q) == v.SubtreeID(p) &&
					v.SubtreeVID(q) > v.SubtreeVID(p) {
					want = true
					break
				}
			}
			if got := v.HasLiveGreaterVID(p); got != want {
				t.Fatalf("trial %d m=%d b=%d: HasLiveGreaterVID(P(%d)) = %v, want %v",
					trial, m, v.B, p, got, want)
			}
		}
	}
}

func TestPropertyFindLiveNodeIsSubtreeMax(t *testing.T) {
	rng := xrand.New(22)
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(5)
		v, live := randomView(rng, m)
		for s := bitops.PID(0); s < bitops.PID(bitops.Slots(m)); s++ {
			got, ok := v.FindLiveNode(s)
			// Brute force: the live node with the largest subtree VID at
			// or below s's, within s's subtree.
			want, wantOK := bitops.PID(0), false
			for q := bitops.PID(0); q < bitops.PID(bitops.Slots(m)); q++ {
				if !live.IsLive(q) || v.SubtreeID(q) != v.SubtreeID(s) {
					continue
				}
				if v.SubtreeVID(q) > v.SubtreeVID(s) {
					continue
				}
				if !wantOK || v.SubtreeVID(q) > v.SubtreeVID(want) {
					want, wantOK = q, true
				}
			}
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("trial %d m=%d b=%d: FindLiveNode(P(%d)) = (P(%d),%v), want (P(%d),%v)",
					trial, m, v.B, s, got, ok, want, wantOK)
			}
		}
	}
}

func TestPropertyRouteStaysInSubtreeAndBounded(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(5)
		v, live := randomView(rng, m)
		live.ForEachLive(func(origin bitops.PID) {
			stops := ancestorStops(v, origin)
			if len(stops) == 0 || stops[0] != origin {
				t.Fatalf("path from live P(%d) must start there: %v", origin, stops)
			}
			if len(stops)-1 > m {
				t.Fatalf("path longer than m: %v", stops)
			}
			prev := v.SubtreeVID(origin)
			for i, s := range stops {
				if !live.IsLive(s) {
					t.Fatalf("dead stop P(%d) on path %v", s, stops)
				}
				if v.SubtreeID(s) != v.SubtreeID(origin) {
					t.Fatalf("path escaped the subtree: %v", stops)
				}
				if i > 0 {
					if sv := v.SubtreeVID(s); sv <= prev {
						t.Fatalf("path not strictly ascending in VID: %v", stops)
					} else {
						prev = sv
					}
				}
			}
		})
	}
}

func TestPropertyPrimaryHolderConsistent(t *testing.T) {
	// The primary holder must equal FindLiveNode from the subtree root
	// position, and HasLiveGreaterVID(primary) must always be false. Every
	// placement rule is then checked against a brute force over the same
	// live set.
	rng := xrand.New(24)
	for trial := 0; trial < 300; trial++ {
		m := 3 + rng.Intn(5)
		v, live := randomView(rng, m)
		var want []bitops.PID
		for sid := bitops.VID(0); sid < bitops.VID(bitops.SubtreeCount(v.B)); sid++ {
			h, ok := v.primaryHolder(sid)
			root := v.SubtreeRoot(sid)
			h2, ok2 := v.FindLiveNode(root)
			if ok != ok2 || (ok && h != h2) {
				t.Fatalf("trial %d: primaryHolder(%b)=(%d,%v) vs FindLiveNode(root)=(%d,%v)",
					trial, sid, h, ok, h2, ok2)
			}
			if ok && v.HasLiveGreaterVID(h) {
				t.Fatalf("trial %d: a live node outranks the primary P(%d)", trial, h)
			}
			if p, ok3 := v.PrimaryOf(root); ok3 {
				want = append(want, p)
			}
		}
		if got := v.AppendPrimaries(nil); !slices.Equal(got, want) {
			t.Fatalf("trial %d: AppendPrimaries = %v, want each live subtree's PrimaryOf %v", trial, got, want)
		}
		n := bitops.PID(bitops.Slots(m))
		for q := bitops.PID(0); q < n; q++ {
			h, ok := v.PrimaryOf(q)
			h2, ok2 := v.FindLiveNode(v.SubtreeRoot(v.SubtreeID(q)))
			if ok != ok2 || (ok && h != h2) || v.IsPrimary(q) != (ok && h == q) {
				t.Fatalf("trial %d: PrimaryOf(P(%d))=(%d,%v) vs FindLiveNode(root)=(%d,%v)",
					trial, q, h, ok, h2, ok2)
			}
		}
		checkMoves(t, trial, v, live)
		checkBroadcastStarts(t, trial, v, live)
	}
}

// bruteMax is the live node with the largest subtree VID in q's subtree
// under live: the primary, by exhaustive search.
func bruteMax(v View, live *liveness.Set, q bitops.PID) (bitops.PID, bool) {
	best, ok := bitops.PID(0), false
	for p := bitops.PID(0); p < bitops.PID(bitops.Slots(v.M())); p++ {
		if !live.IsLive(p) || v.SubtreeID(p) != v.SubtreeID(q) {
			continue
		}
		if !ok || v.SubtreeVID(p) > v.SubtreeVID(best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// checkMoves checks the §5 moves for every (k, j): JoinTakes(k, j), on the
// view with k set live, holds exactly when j shares k's subtree and k
// becomes its primary; RestoreTarget(k, j), on the view with k set dead,
// returns the new primary exactly when k's death changes its subtree's
// primary (to a live node) and j is in another subtree.
func checkMoves(t *testing.T, trial int, v View, live *liveness.Set) {
	t.Helper()
	n := bitops.PID(bitops.Slots(v.M()))
	for k := bitops.PID(0); k < n; k++ {
		up, down := live.Clone(), live.Clone()
		up.SetLive(k)
		down.SetDead(k)
		joined := NewView(v.Root, up, v.B)
		died := NewView(v.Root, down, v.B)
		before, _ := bruteMax(v, up, k) // k live: the primary before it dies
		after, left := bruteMax(v, down, k)
		for j := bitops.PID(0); j < n; j++ {
			same := v.SubtreeID(j) == v.SubtreeID(k)
			if got, want := joined.JoinTakes(k, j), same && before == k; got != want {
				t.Fatalf("trial %d m=%d b=%d: JoinTakes(P(%d), P(%d)) = %v, want %v",
					trial, v.M(), v.B, k, j, got, want)
			}
			wantOK := !same && before == k && left
			if got, ok := died.RestoreTarget(k, j); ok != wantOK || (ok && got != after) {
				t.Fatalf("trial %d m=%d b=%d: RestoreTarget(P(%d), P(%d)) = (P(%d), %v), want (P(%d), %v)",
					trial, v.M(), v.B, k, j, got, ok, after, wantOK)
			}
		}
	}
}

// checkBroadcastStarts checks that the broadcast starts are live and head
// disjoint subtrees whose union is every live node.
func checkBroadcastStarts(t *testing.T, trial int, v View, live *liveness.Set) {
	t.Helper()
	headed := map[bitops.PID]bitops.PID{}
	head := func(s, q bitops.PID) {
		if prev, dup := headed[q]; dup {
			t.Fatalf("trial %d: P(%d) is under both starts P(%d) and P(%d)", trial, q, prev, s)
		}
		headed[q] = s
	}
	for _, s := range v.AppendBroadcastStarts(nil) {
		if !live.IsLive(s) {
			t.Fatalf("trial %d: broadcast starts at dead P(%d)", trial, s)
		}
		head(s, s)
		v.ForEachDescendant(s, func(q bitops.PID) { head(s, q) })
	}
	live.ForEachLive(func(q bitops.PID) {
		if _, ok := headed[q]; !ok {
			t.Fatalf("trial %d: live P(%d) is under no broadcast start", trial, q)
		}
	})
}

func TestPropertyExpandedListDisjointSubtrees(t *testing.T) {
	// Members of an expanded children list head disjoint subtrees: no
	// member is an ancestor of another (in subtree terms). This is what
	// makes the update broadcast visit each holder exactly once.
	rng := xrand.New(25)
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(4)
		v, _ := randomView(rng, m)
		for p := bitops.PID(0); p < bitops.PID(bitops.Slots(m)); p++ {
			list := v.ExpandedChildrenList(p)
			mb := v.M() - v.B
			for i, a := range list {
				for j, b := range list {
					if i == j {
						continue
					}
					if bitops.IsAncestor(v.SubtreeVID(a), v.SubtreeVID(b), mb) {
						t.Fatalf("trial %d: P(%d) is ancestor of P(%d) in list %v",
							trial, a, b, list)
					}
				}
			}
		}
	}
}
