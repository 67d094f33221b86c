package netnode

// TestUpdatesConvergeAtEverySize is the mechanical check of the update
// broadcast (docs/ROUTING.md "Pull-based propagation"): every update, from
// 0 bytes to 1 MiB, travels down the children lists as a notify and every
// holder pulls the body, so after each acknowledgement every copy of the
// name is the acknowledged version byte for byte, the acknowledgement counts
// exactly the copies there are, and a deleted name is gone everywhere.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/repair"
	"lesslog/internal/transport"
)

// convergeSizes are the update sizes the check draws from: empty, one byte,
// the ledger's small body, both sides of 256 KiB (where the fabric once
// switched between pushing the body and notifying), and 1 MiB.
var convergeSizes = []int{0, 1, 4 << 10, 255 << 10, 257 << 10, 1 << 20}

// convergeFabric is an M = 4, B = 1 fabric whose peers each have their own
// fault table, so one holder's pulls can fail while every other peer's work.
type convergeFabric struct {
	peers  map[bitops.PID]*Peer
	faults map[bitops.PID]*transport.Faults
	hasher hashring.Hasher
}

func startConvergeFabric(t *testing.T) *convergeFabric {
	t.Helper()
	fab := &convergeFabric{
		peers: map[bitops.PID]*Peer{}, faults: map[bitops.PID]*transport.Faults{}, hasher: hashring.FNV{},
	}
	addrs := map[bitops.PID]string{}
	for _, pid := range allPIDs(16) {
		fab.faults[pid] = transport.NewFaults()
		p, err := Listen(Config{PID: pid, M: 4, B: 1, Hasher: fab.hasher, Faults: fab.faults[pid]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		fab.peers[pid] = p
		addrs[pid] = p.Addr()
	}
	for _, p := range fab.peers {
		p.SetAddrs(addrs)
	}
	return fab
}

// write runs one mutation through a client entering at P(0) and fails the
// test unless it is acknowledged.
func (fab *convergeFabric) write(t *testing.T, req *msg.Request) *msg.Response {
	t.Helper()
	resp, err := NewClient(fab.peers[0].Addr()).Write(req)
	if err != nil {
		t.Fatalf("%s %q (%d bytes): %v", req.Kind, req.Name, len(req.Data), err)
	}
	return resp
}

// primaries are the peers §2.2 placed name on, one per subtree.
func (fab *convergeFabric) primaries(name string) []bitops.PID {
	target := fab.hasher.Target(name, 4)
	return fab.peers[0].view(target).AppendPrimaries(nil)
}

// placeReplicas puts §6 replicas of name's current copy down each primary's
// children list: at its head, and at the head of the head's own list. It
// answers the peers that hold name afterwards.
func (fab *convergeFabric) placeReplicas(t *testing.T, name string) int {
	t.Helper()
	v := fab.peers[0].view(fab.hasher.Target(name, 4))
	for _, primary := range fab.primaries(name) {
		f, ok := fab.peers[primary].store.Peek(name)
		if !ok {
			t.Fatalf("primary P(%d) does not hold %q", primary, name)
		}
		at := primary
		for depth := 0; depth < 2; depth++ {
			kids := v.ExpandedChildrenList(at)
			if len(kids) == 0 {
				break
			}
			at = kids[0]
			if err := NewClient(fab.peers[at].Addr()).Store(name, f.Data, f.Version, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return len(holdersOf(fab.peers, name))
}

// converged fails the test unless every copy of name is version v holding
// want, and there are exactly holders of them.
func (fab *convergeFabric) converged(t *testing.T, name string, want []byte, v uint64, holders int) {
	t.Helper()
	n := 0
	for pid, p := range fab.peers {
		f, ok := p.store.Peek(name)
		if !ok {
			continue
		}
		n++
		if f.Version != v || !bytes.Equal(f.Data, want) {
			t.Fatalf("P(%d) holds %q v%d (%d bytes), want v%d (%d bytes)", pid, name, f.Version, len(f.Data), v, len(want))
		}
	}
	if n != holders {
		t.Fatalf("%q has %d copies, want %d", name, n, holders)
	}
}

func TestUpdatesConvergeAtEverySize(t *testing.T) {
	fab := startConvergeFabric(t)
	rng := rand.New(rand.NewSource(37))
	body := func() []byte { return chunkPayload(convergeSizes[rng.Intn(len(convergeSizes))], rng.Int63()) }

	// Half the names carry §6 replicas down both primaries' children lists.
	type tracked struct {
		name     string
		replicas bool
		holders  int // 0 while deleted
	}
	names := make([]*tracked, 4)
	insert := func(n *tracked) {
		data := body()
		resp := fab.write(t, &msg.Request{Kind: msg.KindInsert, Name: n.name, Data: data})
		n.holders = 2
		fab.converged(t, n.name, data, resp.Version, n.holders)
		if n.replicas {
			n.holders = fab.placeReplicas(t, n.name)
			fab.converged(t, n.name, data, resp.Version, n.holders)
		}
	}
	for i := range names {
		names[i] = &tracked{name: fmt.Sprintf("converge/%d", i), replicas: i%2 == 0}
		insert(names[i])
		if names[i].replicas && names[i].holders != 6 {
			t.Fatalf("%q: %d holders after placing replicas, want 2 primaries and 2 replicas under each",
				names[i].name, names[i].holders)
		}
	}

	sizes := map[int]int{}
	for step := 0; step < 40; step++ {
		n := names[rng.Intn(len(names))]
		switch {
		case n.holders == 0:
			insert(n)
		case rng.Intn(5) == 0:
			resp := fab.write(t, &msg.Request{Kind: msg.KindDelete, Name: n.name})
			if int(resp.Hops) != n.holders {
				t.Fatalf("step %d: delete of %q acked %d copies, want %d", step, n.name, resp.Hops, n.holders)
			}
			if held := holdersOf(fab.peers, n.name); len(held) != 0 {
				t.Fatalf("step %d: deleted %q survives at %v", step, n.name, held)
			}
			n.holders = 0
		default:
			data := body()
			sizes[len(data)]++
			resp := fab.write(t, &msg.Request{Kind: msg.KindUpdate, Name: n.name, Data: data})
			if int(resp.Hops) != n.holders {
				t.Fatalf("step %d: update of %q (%d bytes) acked %d copies, want %d",
					step, n.name, len(data), resp.Hops, n.holders)
			}
			fab.converged(t, n.name, data, resp.Version, n.holders)
		}
	}
	for _, size := range convergeSizes {
		if sizes[size] == 0 {
			t.Errorf("the seeded sequence never updated at %d bytes", size)
		}
	}

	t.Run("dropped pull", func(t *testing.T) {
		// One primary's pulls fail: the update is acked without its copy,
		// which one repair round at that primary brings up to the acked
		// version.
		n := names[0]
		if n.holders == 0 {
			insert(n)
		}
		prim := fab.primaries(n.name)
		entry, victim := prim[0], prim[1]
		cancel := fab.faults[victim].AddCancel(transport.Rule{Kind: msg.KindFetch, Drop: true})
		data := chunkPayload(4<<10, 371)
		resp, err := NewClient(fab.peers[entry].Addr()).Do(&msg.Request{Kind: msg.KindUpdate, Name: n.name, Data: data}, false)
		if err != nil || !resp.OK {
			t.Fatalf("update: %+v, %v", resp, err)
		}
		if int(resp.Hops) != n.holders-1 {
			t.Fatalf("acked %d copies with P(%d)'s pull dropped, want %d", resp.Hops, victim, n.holders-1)
		}
		if f, _ := fab.peers[victim].store.Peek(n.name); f.Version == resp.Version {
			t.Fatal("setup: the holder whose pull was dropped converged anyway")
		}
		cancel()
		if got := fab.peers[victim].RepairOnce(&repair.Sampler{}, repair.NewBudget(-1, 0), -1); got == 0 {
			t.Fatal("one repair round moved nothing")
		}
		fab.converged(t, n.name, data, resp.Version, n.holders)
	})
}
