package netnode

// A body over one wire frame exists; a read that could only offer it as one
// whole frame must say so — ErrOverFrame — and never "file not found".

import (
	"bytes"
	"errors"
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

// TestPlainGetOverFrameIsNotAFault: a plain (relay-only) client cannot
// carry the body, and reports exactly that.
func TestPlainGetOverFrameIsNotAFault(t *testing.T) {
	peers, _ := seedOverFrame(t)
	_, err := NewClient(peers[2].Addr()).Get("huge")
	if !errors.Is(err, ErrOverFrame) || errors.Is(err, ErrFault) {
		t.Fatalf("plain get of a 17 MiB body: err = %v, want ErrOverFrame and not ErrFault", err)
	}
	// A name that really is absent still faults.
	if _, err := NewClient(peers[2].Addr()).Get("absent"); !errors.Is(err, ErrFault) {
		t.Fatalf("plain get of an absent name: err = %v, want ErrFault", err)
	}
}

// TestOverFrameGetIsNotAServe: the serve loop answers a whole-frame get of
// a body past one frame with the over-frame refusal, so the holder counts
// no serve for it; a get of a body that fits is one serve.
func TestOverFrameGetIsNotAServe(t *testing.T) {
	peers, _ := seedOverFrame(t)
	served := func() (n uint64) {
		for _, p := range peers {
			n += p.Stats().Served.Load()
		}
		return n
	}
	before := served()
	if _, err := NewClient(peers[2].Addr()).Get("huge"); !errors.Is(err, ErrOverFrame) {
		t.Fatalf("plain get of a 17 MiB body: err = %v, want ErrOverFrame", err)
	}
	if d := served() - before; d != 0 {
		t.Errorf("an over-frame refusal moved Served by %d, want 0", d)
	}
	if err := NewClient(peers[0].Addr()).Insert("mid", chunkPayload(1<<20, 72)); err != nil {
		t.Fatal(err)
	}
	before = served()
	if _, err := NewClient(peers[2].Addr()).Get("mid"); err != nil {
		t.Fatal(err)
	}
	if d := served() - before; d != 1 {
		t.Errorf("a 1 MiB get moved Served by %d, want 1", d)
	}
}

// TestLocateGetOverFrameReResolves: the hinted set is dead and the chunk
// plane fails transiently, so the read falls to the relay rung — which can
// only answer over-frame. The client re-resolves through locate-set and
// serves the body instead of giving up.
func TestLocateGetOverFrameReResolves(t *testing.T) {
	peers, data := seedOverFrame(t)
	// The hinted holder's fetch and both sources of the first locate-set's
	// transfer are dropped, one attempt each (no transport retries).
	faults := transport.NewFaults().Add(transport.Rule{Kind: msg.KindFetch, Drop: true, Times: 3})
	tr := transport.New(transport.Config{Retries: -1}, faults)
	t.Cleanup(func() { tr.Close() })
	hints := routehint.New(0, 0)
	hints.PutSet("huge", []routehint.Hint{{PID: 9, Addr: "127.0.0.1:1"}}) // nobody listens there
	cl := NewLocateClientWith(peers[2].Addr(), tr, LocateOptions{Hints: hints})

	res, err := cl.Get("huge")
	if err != nil {
		t.Fatalf("get behind a dead hinted set and a flaky chunk plane: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("served %d bytes, want the %d-byte body intact", len(res.Data), len(data))
	}
	st := cl.LocateStats()
	if st.HintStale.Load() != 1 || st.Relays.Load() != 1 || st.Locates.Load() != 2 {
		t.Fatalf("hint_stale=%d relays=%d locates=%d, want 1/1/2 (dead set, relay refused over-frame, re-resolved)",
			st.HintStale.Load(), st.Relays.Load(), st.Locates.Load())
	}

	// With the chunk plane down for good the typed error surfaces.
	faults.Add(transport.Rule{Kind: msg.KindFetch, Drop: true})
	hints.Purge("huge")
	if _, err := cl.Get("huge"); !errors.Is(err, ErrOverFrame) || errors.Is(err, ErrFault) {
		t.Fatalf("get with no chunk plane: err = %v, want ErrOverFrame and not ErrFault", err)
	}
}
