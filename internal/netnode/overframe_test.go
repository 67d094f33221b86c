package netnode

// A body past one wire frame is read like any other: the get is answered
// with the body's head and the reader fetches the rest in version-pinned
// ranges (docs/ROUTING.md "One read at every size"). The get alone counts
// the §6 access and the serve.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/routehint"
	"lesslog/internal/transport"
)

// seedOverFrame boots a 4-peer fabric and swaps a 17 MiB body (one shared
// slice) in at exactly the holders an insert placed the name on, so every
// locate-set answers the two primaries and nothing else.
func seedOverFrame(t *testing.T) (map[uint32]*Peer, []byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("seeds a >16 MiB payload")
	}
	data := chunkPayload(msg.MaxData+(1<<20), 71)
	sys := startSystem(t, 3, 1, allPIDs(4), hashring.Fixed(2))
	if err := NewClient(sys[0].Addr()).Insert("huge", []byte("placeholder")); err != nil {
		t.Fatal(err)
	}
	peers := map[uint32]*Peer{}
	for pid, p := range sys {
		if p.HasFile("huge") {
			p.SeedLocal("huge", data, 1<<40)
		}
		peers[uint32(pid)] = p
	}
	return peers, data
}

// reads sums, over every peer, the §6 accesses of name and the serves.
func reads(peers map[uint32]*Peer, name string) (hits, served uint64) {
	for _, p := range peers {
		hits += p.store.Hits(name)
		served += p.Stats().Served.Load()
	}
	return hits, served
}

// TestPlainGetOverFrameIsNotAFault: a plain (relay-only) client reads a
// 17 MiB body whole, at the version the holders keep, for one §6 access
// and one serve across the fabric; a name no peer holds is still a fault.
func TestPlainGetOverFrameIsNotAFault(t *testing.T) {
	peers, data := seedOverFrame(t)
	hits, served := reads(peers, "huge")
	res, err := NewClient(peers[2].Addr()).Get("huge")
	if err != nil {
		t.Fatalf("plain get of a 17 MiB body: %v", err)
	}
	if !bytes.Equal(res.Data, data) || res.Version != 1<<40 {
		t.Fatalf("plain get returned %d bytes at v%d, want the %d-byte body at v%d", len(res.Data), res.Version, len(data), uint64(1<<40))
	}
	if h, s := reads(peers, "huge"); h-hits != 1 || s-served != 1 {
		t.Errorf("one get moved store.Hits by %d and Served by %d, want 1 and 1", h-hits, s-served)
	}
	if _, err := NewClient(peers[2].Addr()).Get("absent"); !errors.Is(err, ErrFault) {
		t.Fatalf("plain get of an absent name: err = %v, want ErrFault", err)
	}
}

// TestOverFrameGetIsOneServe: a raw get of a body past one frame is
// answered with its head — the first chunk at offset 0, the holders to
// fetch the rest from, the serving holder first — and counts one serve; a
// raw get of a body of one frame or less still answers the body itself in
// Data.
func TestOverFrameGetIsOneServe(t *testing.T) {
	peers, data := seedOverFrame(t)
	_, served := reads(peers, "huge")
	resp, err := Call(peers[2].Addr(), &msg.Request{Kind: msg.KindGet, Name: "huge"})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if !resp.OK || !resp.Head || resp.Version != 1<<40 {
		t.Fatalf("raw get of a 17 MiB body: OK=%v Head=%v v%d, want a head at v%d", resp.OK, resp.Head, resp.Version, uint64(1<<40))
	}
	h, err := msg.DecodeGetHead(resp)
	if err != nil {
		t.Fatal(err)
	}
	if h.First.TotalSize != uint64(len(data)) || len(h.First.Chunk) == 0 || !bytes.Equal(h.First.Chunk, data[:len(h.First.Chunk)]) {
		t.Fatalf("head: total %d, %d-byte first chunk, want total %d and the body's first bytes", h.First.TotalSize, len(h.First.Chunk), len(data))
	}
	if len(h.Holders) != 2 || h.Holders[0].PID != resp.ServedBy || h.Holders[0].Addr != peers[resp.ServedBy].Addr() {
		t.Fatalf("head holders %+v, want the two primaries, P(%d) first", h.Holders, resp.ServedBy)
	}
	if _, s := reads(peers, "huge"); s-served != 1 {
		t.Errorf("a head answer moved Served by %d, want 1", s-served)
	}

	for _, n := range []int{1 << 20, msg.MaxData} {
		name, body := fmt.Sprintf("whole/%d", n), chunkPayload(n, int64(n))
		if err := NewClient(peers[0].Addr()).Insert(name, body); err != nil {
			t.Fatal(err)
		}
		resp, err := Call(peers[2].Addr(), &msg.Request{Kind: msg.KindGet, Name: name})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.Head || !bytes.Equal(resp.Data, body) {
			t.Fatalf("raw get of a %d-byte body: OK=%v Head=%v, %d bytes, want the body in Data", n, resp.OK, resp.Head, len(resp.Data))
		}
		resp.Release()
	}
}

// TestLocateGetOverFrameRelayFetchesRest: the hinted set is dead and the
// chunk plane fails transiently, so the read falls to the relay rung, whose
// head answer carries the body's first chunk and its holders: the client
// fetches the rest from them, with no second locate walk.
func TestLocateGetOverFrameRelayFetchesRest(t *testing.T) {
	peers, data := seedOverFrame(t)
	// The hinted holder's fetch and both sources of the locate-set's
	// transfer are dropped, one attempt each (no transport retries).
	faults := transport.NewFaults().Add(transport.Rule{Kind: msg.KindFetch, Drop: true, Times: 3})
	tr := transport.New(transport.Config{Retries: -1}, faults)
	t.Cleanup(func() { tr.Close() })
	hints := routehint.New(0, 0)
	hints.PutSet("huge", []routehint.Hint{{PID: 9, Addr: "127.0.0.1:1"}}) // nobody listens there
	cl := NewLocateClientWith(peers[2].Addr(), tr, LocateOptions{Hints: hints})

	hits, served := reads(peers, "huge")
	res, err := cl.Get("huge")
	if err != nil {
		t.Fatalf("get behind a dead hinted set and a flaky chunk plane: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("served %d bytes, want the %d-byte body intact", len(res.Data), len(data))
	}
	st := cl.LocateStats()
	if st.HintStale.Load() != 1 || st.Relays.Load() != 1 || st.Locates.Load() != 1 {
		t.Fatalf("hint_stale=%d relays=%d locates=%d, want 1/1/1 (dead set, failed transfer, relay read the rest)",
			st.HintStale.Load(), st.Relays.Load(), st.Locates.Load())
	}
	// The dropped head fetches reached no store; the relay's get is the
	// read's one access and one serve.
	if h, s := reads(peers, "huge"); h-hits != 1 || s-served != 1 {
		t.Errorf("the read moved store.Hits by %d and Served by %d, want 1 and 1", h-hits, s-served)
	}

	// With the chunk plane down for good, the relay's head arrives but the
	// rest cannot: the read fails, and not as a fault.
	faults.Add(transport.Rule{Kind: msg.KindFetch, Drop: true})
	hints.Purge("huge")
	if _, err := cl.Get("huge"); err == nil || errors.Is(err, ErrFault) {
		t.Fatalf("get with no chunk plane: err = %v, want a failed transfer, not ErrFault", err)
	}
}
