package netnode

import (
	"bytes"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/repair"
	"lesslog/internal/store"
)

// deleteWithStraggler builds the resurrection shape: insert under B=1
// (two holders), delete cluster-wide, then re-plant the pre-delete copy
// on one holder — the peer that slept through the delete broadcast and
// rejoined with its old inventory (Put clears its own tombstone, exactly
// as a fresh process would have none). Returns the straggler, the other
// (tombstoned) holder, and the erased copy's version.
func deleteWithStraggler(t *testing.T, peers map[bitops.PID]*Peer) (straggler, tombstoned bitops.PID, oldVersion uint64) {
	t.Helper()
	cl := NewClient(peers[0].Addr())
	if err := cl.Insert("f", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "f")
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want 2", holders)
	}
	f0, _ := peers[holders[0]].store.Peek("f")
	if n, err := cl.Delete("f"); err != nil || n != 2 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	if left := holdersOf(peers, "f"); len(left) != 0 {
		t.Fatalf("copies survived the delete: %v", left)
	}
	tv, dead := peers[holders[1]].store.TombVersion("f")
	if !dead || tv <= f0.Version {
		t.Fatalf("tombstone at P(%d): version %d, %v; want > %d", holders[1], tv, dead, f0.Version)
	}
	peers[holders[0]].store.Put(store.File{Name: "f", Data: []byte("doomed"), Version: f0.Version}, store.Inserted)
	return holders[0], holders[1], f0.Version
}

func TestRepairErasesResurrectedCopy(t *testing.T) {
	// The straggler's own repair round probes the surviving holder, learns
	// the name was deleted at a version its copy does not supersede, and
	// erases the copy instead of pushing it back — no resurrection.
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	straggler, _, _ := deleteWithStraggler(t, peers)

	var sampler repair.Sampler
	if n := peers[straggler].RepairOnce(&sampler, nil, -1); n != 1 {
		t.Fatalf("RepairOnce repaired %d, want 1 (the erase)", n)
	}
	if left := holdersOf(peers, "f"); len(left) != 0 {
		t.Fatalf("deleted name resurrected at %v", left)
	}
	if _, dead := peers[straggler].store.TombVersion("f"); !dead {
		t.Fatal("straggler did not adopt the tombstone")
	}
	if got := peers[straggler].Stats().RepairErased.Load(); got != 1 {
		t.Fatalf("RepairErased = %d, want 1", got)
	}
	if got := peers[straggler].Stats().Repaired.Load(); got != 0 {
		t.Fatalf("Repaired = %d, want 0 (the corpse must not be pushed)", got)
	}
	// Steady state: nothing left to repair, nothing comes back.
	if n := peers[straggler].RepairOnce(&sampler, nil, -1); n != 0 {
		t.Fatalf("second round repaired %d", n)
	}
}

func TestDigestSyncDoesNotResurrectDeletedName(t *testing.T) {
	// The other direction: the tombstoned holder digests against the
	// straggler, whose answer offers the stale copy. The tombstone must
	// win — pulling the corpse would undo the delete.
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	straggler, tombstoned, _ := deleteWithStraggler(t, peers)

	if n := peers[tombstoned].DigestSync(straggler, nil, 32); n != 0 {
		t.Fatalf("digest pulled %d deleted copies", n)
	}
	if peers[tombstoned].store.Has("f") {
		t.Fatal("tombstoned holder pulled the deleted name back")
	}
	if _, dead := peers[tombstoned].store.TombVersion("f"); !dead {
		t.Fatal("tombstone lost during digest exchange")
	}
}

func TestStorePushIsVersionGated(t *testing.T) {
	// A placement behind the current copy (the probe-then-push TOCTOU:
	// repair probed, the copy went newer, the push lands late) must not
	// clobber. The holder answers OK with the surviving version — the
	// name is present at least as new, which is all the pusher wanted.
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewClient(peers[0].Addr())
	if err := cl.Insert("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	old, _ := peers[4].store.Peek("f")
	if _, err := cl.Update("f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	cur, _ := peers[4].store.Peek("f")
	if cur.Version <= old.Version {
		t.Fatalf("precondition: update did not advance the version (%d -> %d)", old.Version, cur.Version)
	}

	resp, err := NewClient(peers[4].Addr()).Do(inlinePlacement(t, "f", []byte("stale"), old.Version), false)
	if err != nil || !resp.OK {
		t.Fatalf("stale push: %+v, %v", resp, err)
	}
	if resp.Version != cur.Version {
		t.Fatalf("stale push answered version %d, want surviving %d", resp.Version, cur.Version)
	}
	f, _ := peers[4].store.Peek("f")
	if !bytes.Equal(f.Data, []byte("v2")) || f.Version != cur.Version {
		t.Fatalf("stale push clobbered the newer copy: %+v", f)
	}
	// A strictly newer push still applies.
	resp, err = NewClient(peers[4].Addr()).Do(inlinePlacement(t, "f", []byte("v3"), cur.Version+1), false)
	if err != nil || !resp.OK || resp.Version != cur.Version+1 {
		t.Fatalf("newer push: %+v, %v", resp, err)
	}
	f, _ = peers[4].store.Peek("f")
	if !bytes.Equal(f.Data, []byte("v3")) {
		t.Fatalf("newer push refused: %+v", f)
	}
}

func TestStorePushRefusedByTombstone(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewClient(peers[0].Addr())
	if err := cl.Insert("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	old, _ := peers[4].store.Peek("f")
	if _, err := cl.Delete("f"); err != nil {
		t.Fatal(err)
	}

	resp, err := NewClient(peers[4].Addr()).Do(inlinePlacement(t, "f", []byte("corpse"), old.Version), false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Err != ErrTombstoned.Error() {
		t.Fatalf("stale push after delete: %+v", resp)
	}
	if resp.Version <= old.Version {
		t.Fatalf("tombstone refusal carried version %d, want > %d", resp.Version, old.Version)
	}
	if peers[4].store.Has("f") {
		t.Fatal("refused push still landed")
	}
	// A push stamped above the tombstone supersedes the deletion.
	resp, err = NewClient(peers[4].Addr()).Do(inlinePlacement(t, "f", []byte("reborn"), resp.Version+1), false)
	if err != nil || !resp.OK {
		t.Fatalf("superseding push: %+v, %v", resp, err)
	}
	if f, ok := peers[4].store.Peek("f"); !ok || !bytes.Equal(f.Data, []byte("reborn")) {
		t.Fatalf("superseding push not applied: %+v, %v", f, ok)
	}
}

func TestReinsertAfterDeleteFromLaggingPeer(t *testing.T) {
	// Re-insert through a peer whose Lamport clock never saw the delete
	// (it held no copy, so the broadcast never reached its clock). The
	// first placement attempt lands below the tombstone and is refused;
	// handleInsert must merge the refusal's version, restamp strictly
	// above it, and re-place — the new copy supersedes the delete at
	// every holder instead of being erased by anti-entropy later.
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.FNV{})
	cl := NewClient(peers[0].Addr())
	if err := cl.Insert("f", []byte("first")); err != nil {
		t.Fatal(err)
	}
	holders := holdersOf(peers, "f")
	if _, err := cl.Delete("f"); err != nil {
		t.Fatal(err)
	}
	tombV, _ := peers[holders[0]].store.TombVersion("f")

	var lag bitops.PID
	found := false
	for pid := range peers {
		if pid == 0 || pid == holders[0] || pid == holders[1] {
			continue
		}
		lag, found = pid, true
		break
	}
	if !found {
		t.Fatal("no lagging peer available")
	}
	if err := NewClient(peers[lag].Addr()).Insert("f", []byte("second")); err != nil {
		t.Fatalf("re-insert through lagging P(%d): %v", lag, err)
	}
	if got := holdersOf(peers, "f"); len(got) != 2 {
		t.Fatalf("re-insert placed %d copies, want 2", len(got))
	}
	res, err := cl.Get("f")
	if err != nil || !bytes.Equal(res.Data, []byte("second")) {
		t.Fatalf("get after re-insert: %+v, %v", res, err)
	}
	if res.Version <= tombV {
		t.Fatalf("re-insert version %d not above tombstone %d", res.Version, tombV)
	}
}

func TestReinsertRestampsOnInlineLeg(t *testing.T) {
	// handleInsert runs its last placement leg on the handler's goroutine,
	// not on one of its own. A tombstone that only that leg meets must still
	// feed the restamp: the insert is re-placed above it at both holders.
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.Fixed(4))
	v := peers[0].view(4)
	first, ok0 := v.PrimaryOf(v.SubtreeRoot(0))
	last, ok1 := v.PrimaryOf(v.SubtreeRoot(1))
	if !ok0 || !ok1 {
		t.Fatal("precondition: both subtrees live")
	}
	const tombV = 1 << 20 // above every clock in the fabric
	peers[last].store.RestoreTombstone("f", tombV, time.Now())
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("reborn")); err != nil {
		t.Fatalf("insert over a tombstone at the last primary P(%d): %v", last, err)
	}
	for _, h := range []bitops.PID{first, last} {
		f, ok := peers[h].store.Peek("f")
		if !ok || !bytes.Equal(f.Data, []byte("reborn")) || f.Version <= tombV {
			t.Fatalf("P(%d) holds %+v, %v; want the insert stamped above the tombstone %d", h, f, ok, tombV)
		}
	}
}
