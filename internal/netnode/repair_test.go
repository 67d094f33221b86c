package netnode

import (
	"bytes"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/repair"
	"lesslog/internal/store"
)

// holdersOf returns the PIDs currently holding name, sorted order not
// guaranteed.
func holdersOf(peers map[bitops.PID]*Peer, name string) []bitops.PID {
	var out []bitops.PID
	for pid, p := range peers {
		if p.store.Has(name) {
			out = append(out, pid)
		}
	}
	return out
}

func TestHasCarriesVersion(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f, ok := peers[4].store.Peek("f")
	if !ok {
		t.Fatal("precondition: no copy at P(4)")
	}
	resp, err := NewClient(peers[4].Addr()).Do(&msg.Request{Kind: msg.KindHas, Name: "f"}, false)
	if err != nil || !resp.OK {
		t.Fatalf("has: %+v, %v", resp, err)
	}
	if resp.Version != f.Version {
		t.Fatalf("has version = %d, want %d", resp.Version, f.Version)
	}
	// A probe must not count as an access (Peek, not Get).
	if h := peers[4].store.Hits("f"); h != 0 {
		t.Fatalf("has probe counted %d accesses", h)
	}
	// Missing name: not OK, version zero.
	resp, err = NewClient(peers[4].Addr()).Do(&msg.Request{Kind: msg.KindHas, Name: "nope"}, false)
	if err != nil || resp.OK || resp.Version != 0 {
		t.Fatalf("has miss: %+v, %v", resp, err)
	}
}

func TestRepairOnceRestoresLostCopy(t *testing.T) {
	// B=1: two copies per name, one per subtree. Silently delete one
	// holder's copy — the erosion §7 never notices — and let the sibling
	// holder's repair round re-establish it.
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "f")
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want 2", holders)
	}
	lost, intact := holders[0], holders[1]
	peers[lost].store.Delete("f")

	var sampler repair.Sampler
	n := peers[intact].RepairOnce(&sampler, nil, -1)
	if n != 1 {
		t.Fatalf("RepairOnce repaired %d copies, want 1", n)
	}
	f, ok := peers[lost].store.Peek("f")
	if !ok || !bytes.Equal(f.Data, []byte("payload")) {
		t.Fatalf("copy not restored at P(%d): %+v, %v", lost, f, ok)
	}
	if got := peers[intact].Stats().Repaired.Load(); got != 1 {
		t.Fatalf("Repaired counter = %d, want 1", got)
	}
	if got := peers[intact].Stats().RepairProbes.Load(); got == 0 {
		t.Fatal("RepairProbes counter did not move")
	}
	// A second round finds nothing to do.
	if n := peers[intact].RepairOnce(&sampler, nil, -1); n != 0 {
		t.Fatalf("steady-state RepairOnce repaired %d copies", n)
	}
}

func TestRepairOnceHealsStaleCopy(t *testing.T) {
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "f")
	if len(holders) != 2 {
		t.Fatalf("holders = %v", holders)
	}
	stale, fresh := holders[0], holders[1]
	// Wind one holder forward, as if the other missed an update broadcast.
	f, _ := peers[fresh].store.Peek("f")
	peers[fresh].store.Update("f", []byte("v2"), f.Version+1)

	// The fresh holder probes, sees the stale version, pushes.
	var sampler repair.Sampler
	if n := peers[fresh].RepairOnce(&sampler, nil, -1); n != 1 {
		t.Fatalf("fresh holder repaired %d, want 1", n)
	}
	got, _ := peers[stale].store.Peek("f")
	if !bytes.Equal(got.Data, []byte("v2")) || got.Version != f.Version+1 {
		t.Fatalf("stale copy not healed: %+v", got)
	}

	// Reverse direction: stale holder probes a newer one and pulls.
	peers[fresh].store.Update("f", []byte("v3"), f.Version+2)
	var sampler2 repair.Sampler
	if n := peers[stale].RepairOnce(&sampler2, nil, -1); n != 1 {
		t.Fatalf("stale holder pulled %d, want 1", n)
	}
	got, _ = peers[stale].store.Peek("f")
	if !bytes.Equal(got.Data, []byte("v3")) {
		t.Fatalf("pull did not heal: %+v", got)
	}
	if peers[stale].Stats().RepairPulled.Load() != 1 {
		t.Fatal("RepairPulled counter did not move")
	}
}

// TestRepairPullCountsNoAccess: a repair pull is anti-entropy, not a read.
// It rides the chunk plane as a replica transfer, which the partner serves
// from Peek, so the partner's §6 access count does not move.
func TestRepairPullCountsNoAccess(t *testing.T) {
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	if err := NewClient(peers[0].Addr()).Insert("f", chunkPayload(4<<10, 60)); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "f")
	if len(holders) != 2 {
		t.Fatalf("holders = %v", holders)
	}
	stale, fresh := holders[0], holders[1]
	f, _ := peers[fresh].store.Peek("f")
	v2 := chunkPayload(4<<10, 61)
	peers[fresh].store.Update("f", v2, f.Version+1)
	hits := peers[fresh].store.Hits("f")

	if n := peers[stale].RepairOnce(&repair.Sampler{}, nil, -1); n != 1 {
		t.Fatalf("stale holder pulled %d, want 1", n)
	}
	if got, _ := peers[stale].store.Peek("f"); !bytes.Equal(got.Data, v2) || got.Version != f.Version+1 {
		t.Fatalf("pull did not heal: v%d, %d bytes", got.Version, len(got.Data))
	}
	if got := peers[fresh].store.Hits("f"); got != hits {
		t.Fatalf("the repair pull counted %d accesses at the partner, want none", got-hits)
	}
}

// Over-frame bodies cannot ride a placement inline or a whole-frame get
// answer — both would fail framing. Repair moves them through the write
// plane instead: pushes as a placement whose facts name the pusher, which
// the holder answers by pulling chunks, pulls through the chunk fetcher
// like every repair pull.
func TestRepairMovesOverFrameBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("over-frame payloads in -short")
	}
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	payload := make([]byte, msg.MaxData+3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := NewClient(peers[0].Addr()).Insert("huge", payload); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "huge")
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want 2", holders)
	}
	lost, intact := holders[0], holders[1]

	// A get of the body is answered with its head — not served into a
	// response the framing layer would reject.
	resp, err := NewClient(peers[intact].Addr()).Do(&msg.Request{Kind: msg.KindGet, Name: "huge"}, false)
	if err != nil {
		t.Fatalf("over-frame get: transport error %v (connection torn down?)", err)
	}
	if !resp.OK || !resp.Head {
		t.Fatalf("over-frame get answered OK=%v Head=%v (%s), want its head", resp.OK, resp.Head, resp.Err)
	}
	resp.Release()

	// Push direction: the copy silently lost at one holder comes back via
	// the direct-notify push (the holder pulls the chunks from the pusher).
	peers[lost].store.Delete("huge")
	var sampler repair.Sampler
	if n := peers[intact].RepairOnce(&sampler, nil, -1); n != 1 {
		t.Fatalf("RepairOnce repaired %d copies, want 1", n)
	}
	f, ok := peers[lost].store.Peek("huge")
	if !ok || !bytes.Equal(f.Data, payload) {
		t.Fatalf("over-frame copy not restored at P(%d) (held=%v, %d bytes)", lost, ok, len(f.Data))
	}

	// Pull direction: one holder misses an over-frame update; its probe
	// sees the newer sibling and pulls through the chunk plane.
	upd := make([]byte, msg.MaxData+7)
	for i := range upd {
		upd[i] = byte(i*13 + 1)
	}
	peers[intact].store.Update("huge", upd, f.Version+1)
	var sampler2 repair.Sampler
	if n := peers[lost].RepairOnce(&sampler2, nil, -1); n != 1 {
		t.Fatalf("stale holder pulled %d, want 1", n)
	}
	got, _ := peers[lost].store.Peek("huge")
	if !bytes.Equal(got.Data, upd) || got.Version != f.Version+1 {
		t.Fatalf("over-frame pull did not heal: version %d, %d bytes", got.Version, len(got.Data))
	}
}

func TestRepairBudgetDefersWork(t *testing.T) {
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "f")
	lost, intact := holders[0], holders[1]
	peers[lost].store.Delete("f")

	// A bone-dry budget: everything defers, nothing moves.
	budget := repair.NewBudget(1, 1) // 1 B/s, 1 B burst: ProbeCost never fits
	var sampler repair.Sampler
	if n := peers[intact].RepairOnce(&sampler, budget, -1); n != 0 {
		t.Fatalf("dry budget still repaired %d copies", n)
	}
	if peers[lost].store.Has("f") {
		t.Fatal("copy restored despite dry budget")
	}
	st := peers[intact].Stats()
	if st.RepairSkipped.Load() == 0 {
		t.Fatal("RepairSkipped did not count deferred work")
	}
	if st.RepairDeficit.Load() <= 0 {
		t.Fatalf("deficit gauge = %d, want > 0", st.RepairDeficit.Load())
	}
	// With the budget lifted the same round heals.
	if n := peers[intact].RepairOnce(&sampler, nil, -1); n != 1 {
		t.Fatal("unlimited budget did not heal")
	}
	if st.RepairDeficit.Load() != 0 {
		t.Fatal("deficit gauge not cleared after a granted round")
	}
}

func TestDigestSyncWarmsEmptiedPeer(t *testing.T) {
	// The rejoin shape: one holder loses its whole inventory (fresh disk)
	// while its sibling-subtree partner still holds everything. One digest
	// exchange pulls exactly the delta — every name the emptied peer is a
	// required holder for.
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	cl := NewClient(peers[0].Addr())
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, n := range names {
		if err := cl.Insert(n, []byte("data-"+n)); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a peer that holds something and empty it.
	var victim bitops.PID
	var lost []string
	for pid, p := range peers {
		if all := p.store.AllNames(); len(all) > 0 {
			victim, lost = pid, all
			break
		}
	}
	for _, n := range lost {
		peers[victim].store.Delete(n)
	}
	// Digest against every other live peer, as the repair loop's partner
	// rotation would; each exchange pulls the slice that partner holds.
	pulled := 0
	for pid := range peers {
		if pid == victim {
			continue
		}
		pulled += peers[victim].DigestSync(pid, nil, 32)
	}
	for _, n := range lost {
		f, ok := peers[victim].store.Peek(n)
		if !ok || !bytes.Equal(f.Data, []byte("data-"+n)) {
			t.Fatalf("name %q not pulled back (%v)", n, ok)
		}
		if k, _ := peers[victim].store.KindOf(n); k != store.Inserted {
			t.Fatalf("pulled copy %q is %v, want inserted", n, k)
		}
	}
	if pulled != len(lost) {
		t.Fatalf("pulled %d names, lost %d", pulled, len(lost))
	}
	if peers[victim].Stats().DigestBytes.Load() == 0 {
		t.Fatal("DigestBytes did not count the exchange")
	}
	// Steady state: the same rotation now transfers zero entries.
	for pid := range peers {
		if pid == victim {
			continue
		}
		if n := peers[victim].DigestSync(pid, nil, 32); n != 0 {
			t.Fatalf("in-sync digest against P(%d) pulled %d", pid, n)
		}
	}
}

func TestDigestRestrictsToRequesterNames(t *testing.T) {
	// A digest answer must only cover names the requester is a required
	// holder for — otherwise two peers with legitimately disjoint
	// inventories would flag the same buckets forever and re-transfer on
	// every round.
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	cl := NewClient(peers[0].Addr())
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if err := cl.Insert(n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Every (requester, responder) pair in steady state: zero entries.
	for qid := range peers {
		for rid, r := range peers {
			if qid == rid {
				continue
			}
			digest := make([]uint64, 16)
			for _, name := range peers[qid].store.AllNames() {
				f, _ := peers[qid].store.Peek(name)
				repair.Fold(digest, name, f.Version)
			}
			data, _ := msg.AppendDigest(nil, digest)
			resp := r.handleDigest(&msg.Request{Kind: msg.KindDigest, Origin: uint32(qid), Data: data})
			if !resp.OK {
				t.Fatalf("digest P(%d)->P(%d): %s", qid, rid, resp.Err)
			}
			entries, err := msg.DecodeDigestEntries(resp.Data)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				// Anything offered must be a name the requester should hold
				// but doesn't hold at this version.
				if !r.view(r.hasher.Target(e.Name, 4)).IsPrimary(qid) {
					t.Fatalf("P(%d) offered P(%d) name %q it does not own", rid, qid, e.Name)
				}
				if f, ok := peers[qid].store.Peek(e.Name); ok && f.Version >= e.Version {
					t.Fatalf("P(%d) offered P(%d) in-sync name %q", rid, qid, e.Name)
				}
			}
			if len(entries) != 0 {
				t.Fatalf("steady-state digest P(%d)->P(%d) carried %d entries", qid, rid, len(entries))
			}
		}
	}
}

func TestDigestRejectsCorruptPayload(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	resp, err := NewClient(peers[0].Addr()).Do(&msg.Request{Kind: msg.KindDigest, Data: []byte{0xFF, 0xFF}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Err == "" {
		t.Fatalf("corrupt digest accepted: %+v", resp)
	}
}

func TestStartRepairLoopHealsInBackground(t *testing.T) {
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "f")
	lost, intact := holders[0], holders[1]
	peers[lost].store.Delete("f")

	stop := peers[intact].StartRepair(repair.Config{Interval: 5 * time.Millisecond, SampleSize: -1})
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for !peers[lost].store.Has("f") {
		if time.Now().After(deadline) {
			t.Fatal("repair loop did not restore the copy in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
}
