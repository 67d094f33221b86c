package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/store"
)

// paperCluster builds the 16-node system of the paper's examples with ψ
// pinned to target 4, so every test file lands in the Figure 2 tree.
func paperCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{M: 4, B: 0, InitialNodes: 16, Hasher: hashring.Fixed(4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{M: 4, InitialNodes: 0}); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := New(Config{M: 4, InitialNodes: 17}); err == nil {
		t.Fatal("17 nodes in a 16-slot space accepted")
	}
	c, err := New(Config{M: 10, B: 2, InitialNodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != 10 || c.B() != 2 || c.Slots() != 1024 || c.NodeCount() != 1024 {
		t.Fatalf("accessors wrong: m=%d b=%d slots=%d n=%d", c.M(), c.B(), c.Slots(), c.NodeCount())
	}
}

func TestInsertPlacesAtTarget(t *testing.T) {
	c := paperCluster(t)
	res, err := c.Insert(9, "f", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != 4 || len(res.Holders) != 1 || res.Holders[0] != 4 {
		t.Fatalf("insert result = %+v", res)
	}
	n, _ := c.Node(4)
	if k, _ := n.Store().KindOf("f"); k != store.Inserted {
		t.Fatal("target does not hold an inserted copy")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGetFollowsPaperPath(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.Insert(0, "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// §2.1: a request at P(8) routes P(8) -> P(0) -> P(4): two hops.
	res, err := c.Get(8, "f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 4 || res.Hops != 2 || res.Fallback || res.Migrated {
		t.Fatalf("get = %+v", res)
	}
	// The target itself is served with zero hops.
	res, err = c.Get(4, "f")
	if err != nil || res.Hops != 0 || res.ServedBy != 4 {
		t.Fatalf("get at target = %+v, %v", res, err)
	}
}

func TestGetHopBound(t *testing.T) {
	c, err := New(Config{M: 10, InitialNodes: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(0, "bounded", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for p := bitops.PID(0); p < 1024; p += 13 {
		res, err := c.Get(p, "bounded")
		if err != nil {
			t.Fatal(err)
		}
		if res.Hops > 10 {
			t.Fatalf("get from P(%d) took %d hops, above the O(log N) bound m=10", p, res.Hops)
		}
	}
}

func TestGetMissingFaults(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.Get(3, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().Faults != 1 {
		t.Fatalf("faults = %d", c.Stats().Faults)
	}
}

func TestDeadOriginRejected(t *testing.T) {
	c, _ := New(Config{M: 4, InitialNodes: 8, Seed: 1})
	if _, err := c.Get(12, "f"); !errors.Is(err, ErrDeadOrigin) {
		t.Fatalf("get: %v", err)
	}
	if _, err := c.Insert(12, "f", nil); !errors.Is(err, ErrDeadOrigin) {
		t.Fatalf("insert: %v", err)
	}
	if _, err := c.Update(12, "f", nil); !errors.Is(err, ErrDeadOrigin) {
		t.Fatalf("update: %v", err)
	}
}

func TestReplicateFileFollowsChildrenList(t *testing.T) {
	c := paperCluster(t)
	c.Insert(0, "hot", []byte("x"))
	// §2.2: P(4)'s children list is (P(5), P(6), P(0), P(12)).
	want := []bitops.PID{5, 6, 0, 12}
	for _, w := range want {
		got, err := c.ReplicateFile(4, "hot")
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("replica at P(%d), want P(%d)", got, w)
		}
		n, _ := c.Node(got)
		if k, _ := n.Store().KindOf("hot"); k != store.Replica {
			t.Fatal("copy not marked replica")
		}
	}
	if c.Stats().ReplicasCreated != 4 {
		t.Fatalf("ReplicasCreated = %d", c.Stats().ReplicasCreated)
	}
}

func TestReplicaHalvesServeCounts(t *testing.T) {
	// §2.2's halving guarantee at the request level: with one get from
	// every node, the first replica (at P(5), subtree of 8 positions)
	// takes exactly half the 16 requests.
	c := paperCluster(t)
	c.Insert(0, "hot", []byte("x"))
	if _, err := c.ReplicateFile(4, "hot"); err != nil {
		t.Fatal(err)
	}
	for p := bitops.PID(0); p < 16; p++ {
		if _, err := c.Get(p, "hot"); err != nil {
			t.Fatal(err)
		}
	}
	n4, _ := c.Node(4)
	n5, _ := c.Node(5)
	if n4.Store().Hits("hot") != 8 || n5.Store().Hits("hot") != 8 {
		t.Fatalf("serve counts: P(4)=%d P(5)=%d, want 8/8",
			n4.Store().Hits("hot"), n5.Store().Hits("hot"))
	}
}

func TestMaintainReplicatesAndEvicts(t *testing.T) {
	c := paperCluster(t)
	c.Insert(0, "hot", []byte("x"))
	c.Insert(0, "cold", []byte("y"))
	for i := 0; i < 20; i++ {
		c.Get(8, "hot")
	}
	c.Get(8, "cold")
	placements, evicted := c.Maintain(10, 0)
	if len(placements) != 1 || placements[0].Name != "hot" || placements[0].Holder != 4 || evicted != 0 {
		t.Fatalf("placements = %+v, evicted %d", placements, evicted)
	}
	// Next window: the replica serves nothing and is evicted at its close.
	if placements, got := c.Maintain(10, 1); got != 1 || len(placements) != 0 {
		t.Fatalf("evicted %d, placed %+v; want 1, none", got, placements)
	}
	if got := c.HoldersOf("hot"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("holders after evict = %v", got)
	}
	if c.Stats().ReplicasEvicted != 1 {
		t.Fatal("eviction not counted")
	}
}

func TestUpdatePropagatesToAllReplicas(t *testing.T) {
	c := paperCluster(t)
	c.Insert(0, "f", []byte("v1"))
	// Build a two-level replica chain: root -> P(5) -> P(5)'s child.
	c.ReplicateFile(4, "f") // at P(5)
	c.ReplicateFile(5, "f") // into P(5)'s children list
	c.ReplicateFile(4, "f") // at P(6)
	holders := c.HoldersOf("f")
	if len(holders) != 4 {
		t.Fatalf("holders = %v", holders)
	}
	res, err := c.Update(9, "f", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.CopiesUpdated != 4 {
		t.Fatalf("updated %d of 4 copies", res.CopiesUpdated)
	}
	for _, h := range holders {
		n, _ := c.Node(h)
		f, _ := n.Store().Peek("f")
		if !bytes.Equal(f.Data, []byte("v2")) {
			t.Fatalf("stale copy at P(%d): %q", h, f.Data)
		}
	}
	// Non-holders discarded the request; messages stay bounded by one
	// per visited node.
	if res.Messages == 0 || res.Messages > 16 {
		t.Fatalf("messages = %d", res.Messages)
	}
}

func TestDeleteRemovesEveryCopy(t *testing.T) {
	c := paperCluster(t)
	c.Insert(0, "f", []byte("x"))
	c.ReplicateFile(4, "f") // P(5)
	c.ReplicateFile(5, "f") // P(5)'s child
	c.ReplicateFile(4, "f") // P(6)
	if len(c.HoldersOf("f")) != 4 {
		t.Fatal("setup failed")
	}
	res, err := c.Delete(9, "f")
	if err != nil {
		t.Fatal(err)
	}
	if res.CopiesRemoved != 4 {
		t.Fatalf("removed %d of 4", res.CopiesRemoved)
	}
	if hs := c.HoldersOf("f"); len(hs) != 0 {
		t.Fatalf("holders after delete = %v", hs)
	}
	if _, err := c.Get(3, "f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWithFaultTolerance(t *testing.T) {
	c, err := New(Config{M: 6, B: 2, InitialNodes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ins, _ := c.Insert(0, "f", []byte("x"))
	if len(ins.Holders) != 4 {
		t.Fatal("setup failed")
	}
	res, err := c.Delete(1, "f")
	if err != nil {
		t.Fatal(err)
	}
	if res.CopiesRemoved != 4 {
		t.Fatalf("removed %d of 4 subtree copies", res.CopiesRemoved)
	}
	if c.FaultToleranceDegreeOf("f") != 0 {
		t.Fatal("degree nonzero after delete")
	}
}

func TestDeleteMissing(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.Delete(0, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	c2, _ := New(Config{M: 4, InitialNodes: 8, Seed: 1})
	if _, err := c2.Delete(12, "x"); !errors.Is(err, ErrDeadOrigin) {
		t.Fatalf("dead origin: %v", err)
	}
}

func TestUpdateMissingFaults(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.Update(3, "ghost", []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestAdvancedInsertWithDeadTarget(t *testing.T) {
	// §3 worked example: P(4), P(5) dead, 4 = ψ(f): the file lands on
	// P(6), and every get is served by P(6).
	c, err := New(Config{M: 4, InitialNodes: 16, Hasher: hashring.Fixed(4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(5); err != nil {
		t.Fatal(err)
	}
	res, err := c.Insert(0, "f", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Holders) != 1 || res.Holders[0] != 6 {
		t.Fatalf("holders = %v, want [6]", res.Holders)
	}
	for _, origin := range []bitops.PID{0, 1, 7, 8, 15} {
		g, err := c.Get(origin, "f")
		if err != nil {
			t.Fatalf("get from P(%d): %v", origin, err)
		}
		if g.ServedBy != 6 {
			t.Fatalf("get from P(%d) served by P(%d), want P(6)", origin, g.ServedBy)
		}
	}
	// Requests whose live-ancestor walk dies at the dead root take the
	// §3 two-step fallback.
	if c.Stats().GetFallbacks == 0 {
		t.Fatal("no get used the FINDLIVENODE fallback")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := paperCluster(t)
	c.Insert(0, "f", []byte("x"))
	c.Get(8, "f")
	c.Get(4, "f")
	st := c.Stats()
	if st.Gets != 2 || st.Inserts != 1 || st.InsertCopies != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.GetHops != 2 { // P(8) took 2 hops, P(4) took 0
		t.Fatalf("GetHops = %d", st.GetHops)
	}
	c.ResetStats()
	if c.Stats().Gets != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestHoldersOfAndTarget(t *testing.T) {
	c, _ := New(Config{M: 6, InitialNodes: 64, Seed: 1})
	name := "object-1"
	r := c.Target(name)
	if _, err := c.Insert(0, name, []byte("x")); err != nil {
		t.Fatal(err)
	}
	hs := c.HoldersOf(name)
	if len(hs) != 1 || hs[0] != r {
		t.Fatalf("holders = %v, target = %d", hs, r)
	}
}

func TestManyFilesInvariants(t *testing.T) {
	c, err := New(Config{M: 8, B: 0, InitialNodes: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("file-%d", i)
		if _, err := c.Insert(bitops.PID(i%200), name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every file is retrievable from every 17th origin.
	for i := 0; i < 300; i += 17 {
		name := fmt.Sprintf("file-%d", i)
		if _, err := c.Get(bitops.PID((i*7)%200), name); err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
	}
}
