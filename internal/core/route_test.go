package core

import (
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/ptree"
	"lesslog/internal/store"
	"lesslog/internal/xrand"
)

// nextLoop is the get walk of ptree.View.Next from origin until a stop
// holds a copy: the server, the steps taken, and whether the server was
// reached by the FINDLIVENODE jump and in another subtree. ok is false
// when the walk runs out of subtrees.
func nextLoop(v ptree.View, origin bitops.PID, has func(bitops.PID) bool) (res GetResult, ok bool) {
	cur, st := origin, ptree.Route{Origin: origin}
	hops := 0
	for !has(cur) {
		next, nst, _, ok := v.Next(cur, st)
		if !ok {
			return GetResult{}, false
		}
		cur, st = next, nst
		hops++
	}
	return GetResult{ServedBy: cur, Hops: hops, Fallback: st.Fallback, Migrated: st.Subtree > 0}, true
}

// TestGetMatchesNextLoop checks the engine's get against the Next loop over
// seeded random systems: M ≤ 6, B ≤ 2, random live sets, holder sets,
// targets and origins. Server, hops, fallback and migration agree, a get
// the loop cannot serve faults, and GetHops grows by exactly the hops the
// get reports.
func TestGetMatchesNextLoop(t *testing.T) {
	rng := xrand.New(36)
	for trial := 0; trial < 300; trial++ {
		m := 2 + rng.Intn(5)
		b := rng.Intn(min(3, m))
		target := bitops.PID(rng.Intn(bitops.Slots(m)))
		c, err := New(Config{M: m, B: b, InitialNodes: bitops.Slots(m), Hasher: hashring.Fixed(target), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for p := bitops.PID(0); int(p) < bitops.Slots(m); p++ {
			if rng.Intn(3) == 0 && c.NodeCount() > 1 {
				if err := c.Fail(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		live := c.Live()
		live.ForEachLive(func(p bitops.PID) {
			if rng.Intn(4) == 0 {
				n, _ := c.Node(p)
				n.Store().Put(store.File{Name: "f", Data: []byte("x"), Version: 1}, store.Replica)
			}
		})
		v := ptree.NewView(target, live, b)
		has := func(q bitops.PID) bool {
			n, ok := c.Node(q)
			return ok && n.Store().Has("f")
		}
		live.ForEachLive(func(origin bitops.PID) {
			want, ok := nextLoop(v, origin, has)
			before := c.Stats().GetHops
			got, err := c.Get(origin, "f")
			if !ok {
				if err != ErrNotFound {
					t.Fatalf("trial %d m=%d b=%d: get from P(%d) = %+v, %v; the Next loop finds no copy",
						trial, m, b, origin, got, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("trial %d m=%d b=%d: get from P(%d): %v; the Next loop serves at P(%d)",
					trial, m, b, origin, err, want.ServedBy)
			}
			if got.ServedBy != want.ServedBy || got.Hops != want.Hops ||
				got.Fallback != want.Fallback || got.Migrated != want.Migrated {
				t.Fatalf("trial %d m=%d b=%d target P(%d): get from P(%d) = %+v, Next loop %+v",
					trial, m, b, target, origin, got, want)
			}
			if d := c.Stats().GetHops - before; d != uint64(got.Hops) {
				t.Fatalf("trial %d: get from P(%d) reports %d hops, GetHops grew by %d", trial, origin, got.Hops, d)
			}
		})
	}
}

// TestMigratedGetCountsEveryHop is the M = 4, B = 1 system with subtree 0's
// copy removed: each origin of subtree 0 walks its own subtree, jumps, and
// walks subtree 1 from its own position, and the hops it reports are all
// of those — what GetHops counts and what the fabric puts in a response.
func TestMigratedGetCountsEveryHop(t *testing.T) {
	c, err := New(Config{M: 4, B: 1, InitialNodes: 16, Hasher: hashring.Fixed(4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := c.Insert(0, "f", []byte("x"))
	if err != nil || len(ins.Holders) != 2 {
		t.Fatalf("insert = %+v, %v", ins, err)
	}
	n, _ := c.Node(ins.Holders[0])
	n.Store().Delete("f")
	v := c.view(4)
	migrated := 0
	for origin := bitops.PID(0); origin < 16; origin++ {
		before := c.Stats().GetHops
		res, err := c.Get(origin, "f")
		if err != nil {
			t.Fatal(err)
		}
		if d := c.Stats().GetHops - before; d != uint64(res.Hops) {
			t.Fatalf("get from P(%d) reports %d hops, GetHops grew by %d", origin, res.Hops, d)
		}
		if !res.Migrated {
			continue
		}
		migrated++
		// Up to the subtree root, one jump, and up again from the same
		// subtree position: twice the climb, plus one.
		climb := 0
		for q := origin; ; climb++ {
			p, ok := v.Parent(q)
			if !ok {
				break
			}
			q = p
		}
		if res.Hops != 2*climb+1 {
			t.Fatalf("migrated get from P(%d): %d hops, want %d", origin, res.Hops, 2*climb+1)
		}
	}
	if migrated != 8 {
		t.Fatalf("%d migrated origins, want the 8 of subtree 0", migrated)
	}
}
