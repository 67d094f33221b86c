package netnode

// E2E tests for the chunked data plane: ranged fetches, locate-set replica
// resolution, striping across holders, anti-splice under concurrent
// updates, and the over-frame read ceiling.

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/store"
	"lesslog/internal/stream"
	"lesslog/internal/transport"
)

func chunkPayload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestChunkedGetRoundTrip is the acceptance path: a file larger than one
// chunk inserted through the normal write plane round-trips through a
// chunked, striped get with the checksum verified.
func TestChunkedGetRoundTrip(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewLocateClientWith(peers[8].Addr(), peers[8].Transport(), LocateOptions{
		ChunkSize: 4 << 10, ChunkWindow: 4,
	})
	data := chunkPayload(64<<10, 1) // 16 chunks at 4 KiB
	if err := cl.Insert("big", data); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("chunked get returned %d bytes, payload mismatch", len(res.Data))
	}
	st := cl.LocateStats()
	if st.ChunkedGets.Load() != 1 || st.Relays.Load() != 0 {
		t.Fatalf("chunked=%d relays=%d, want 1/0", st.ChunkedGets.Load(), st.Relays.Load())
	}
	ss := cl.StreamStats()
	if ss.ChunksFetched.Load() < 16 {
		t.Fatalf("chunks fetched = %d, want >= 16", ss.ChunksFetched.Load())
	}
	// The transfer moved zero relayed bytes: every chunk rode the direct hop.
	var relayed uint64
	for _, p := range peers {
		relayed += p.Stats().RelayedBytes.Load()
	}
	if relayed != 0 {
		t.Fatalf("relayed %d payload bytes on the direct chunk path, want 0", relayed)
	}
	// Warm-hint repeat: no further locate walks.
	locates := st.Locates.Load()
	if _, err := cl.Get("big"); err != nil {
		t.Fatal(err)
	}
	if st.Locates.Load() != locates || st.HintHits.Load() != 1 {
		t.Fatalf("warm get: locates=%d (was %d), hint hits=%d",
			st.Locates.Load(), locates, st.HintHits.Load())
	}
}

// TestChunkedGetStripesAcrossReplicas verifies the locate-set answer lists
// the replica set and the transfer actually spreads chunk serves across
// more than one holder.
func TestChunkedGetStripesAcrossReplicas(t *testing.T) {
	peers := startSystem(t, 4, 2, allPIDs(16), hashring.Fixed(4)) // b=2: 4 replicas
	cl := NewLocateClientWith(peers[9].Addr(), peers[9].Transport(), LocateOptions{
		ChunkSize: 2 << 10, ChunkWindow: 8,
	})
	data := chunkPayload(64<<10, 2) // 32 chunks
	if err := cl.Insert("hot", data); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("payload mismatch")
	}
	servers := 0
	for _, p := range peers {
		if p.Stats().ChunksServed.Load() > 0 {
			servers++
		}
	}
	if servers < 2 {
		t.Fatalf("chunks served by %d holders, want striping across >= 2", servers)
	}
	if w := cl.StreamStats().StripeWidth.Load(); w < 2 {
		t.Fatalf("stripe width %d, want >= 2", w)
	}
}

// TestChunkedReadCeiling proves the read path's ceiling is msg.MaxFileSize,
// not one frame: a copy larger than msg.MaxData (placed directly into the
// holder stores, bypassing the write plane) is readable via the chunk
// plane, checksum intact.
func TestChunkedReadCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("seeds a >16 MiB payload per holder")
	}
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	data := chunkPayload(msg.MaxData+(1<<20), 3) // 17 MiB: over one frame's cap
	for _, pid := range []bitops.PID{4, 8} {
		peers[pid].store.Put(store.File{Name: "huge", Data: data, Version: 1}, store.Inserted)
	}
	cl := NewLocateClientWith(peers[2].Addr(), peers[2].Transport(), LocateOptions{})
	res, err := cl.Get("huge")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("over-frame read returned %d bytes, want %d intact", len(res.Data), len(data))
	}
}

// TestOversizeInsertRejected is the write-plane edge guard: an insert (or
// update) larger than the system-wide file cap (msg.MaxFileSize — one
// wire frame stopped being the ceiling when writes went chunked) fails
// fast with the typed error and bumps the counter — no bytes move.
func TestOversizeInsertRejected(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(4), hashring.Fixed(2))
	cl := NewLocateClientWith(peers[0].Addr(), peers[0].Transport(), LocateOptions{})
	big := make([]byte, msg.MaxFileSize+1)
	if err := cl.Insert("big", big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize insert err = %v, want ErrTooLarge", err)
	}
	if _, err := cl.Update("big", big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize update err = %v, want ErrTooLarge", err)
	}
	if n := cl.LocateStats().OversizeRejects.Load(); n != 2 {
		t.Fatalf("oversize counter = %d, want 2", n)
	}
	for _, p := range peers {
		if p.Stats().Requests.Load() != 0 {
			t.Fatal("oversize write reached the wire")
		}
	}
}

// TestChunkedNoSpliceUnderUpdate is the race E2E: a chunked read running
// concurrently with updates must return exactly one version's bytes —
// version-pinned ranges make a splice impossible. Run under -race in CI.
func TestChunkedNoSpliceUnderUpdate(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	mkv := func(v byte) []byte {
		b := bytes.Repeat([]byte{v}, 32<<10)
		return b
	}
	wcl := NewClient(peers[3].Addr())
	if err := wcl.Insert("contested", mkv(1)); err != nil {
		t.Fatal(err)
	}
	rcl := NewLocateClientWith(peers[8].Addr(), peers[8].Transport(), LocateOptions{
		ChunkSize: 1 << 10, ChunkWindow: 4,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := byte(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := wcl.Update("contested", mkv(v)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		res, err := rcl.Get("contested")
		if err != nil {
			// Sustained write pressure can exhaust the re-locate retry and
			// relay; both outcomes must still be splice-free, a fault is not.
			t.Fatal(err)
		}
		first := res.Data[0]
		if !bytes.Equal(res.Data, bytes.Repeat([]byte{first}, len(res.Data))) {
			t.Fatalf("spliced read: starts with %d, mixed bytes follow", first)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFetchWireSemantics exercises the raw KindFetch handler: range math,
// per-chunk CRC, head-only file CRC, version-pin refusal, and the
// serve-or-refuse miss.
func TestFetchWireSemantics(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(4), hashring.Fixed(2))
	data := chunkPayload(10_000, 4)
	peers[1].store.Put(store.File{Name: "f", Data: data, Version: 3}, store.Inserted)
	table := crc32.MakeTable(crc32.Castagnoli)

	fetch := func(offset uint64, length uint32, pin uint64) (*msg.Response, *msg.FetchResp) {
		raw, err := msg.AppendFetchReq(nil, msg.FetchReq{Offset: offset, Length: length})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := NewClient(peers[1].Addr()).Do(&msg.Request{
			Kind: msg.KindFetch, Name: "f", Version: pin, Data: raw,
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			return resp, nil
		}
		fr, err := msg.DecodeFetchAnswer(resp)
		if err != nil {
			t.Fatal(err)
		}
		return resp, &fr
	}

	// Head chunk: file CRC present, chunk CRC covers the range.
	resp, fr := fetch(0, 4096, 0)
	if !resp.OK || fr.TotalSize != 10_000 || len(fr.Chunk) != 4096 {
		t.Fatalf("head chunk: ok=%v total=%d len=%d", resp.OK, fr.TotalSize, len(fr.Chunk))
	}
	if fr.FileCRC != crc32.Checksum(data, table) || fr.ChunkCRC != crc32.Checksum(data[:4096], table) {
		t.Fatal("head chunk checksums wrong")
	}
	// Body chunk: no file CRC; EOF truncates the final range.
	if _, fr = fetch(8192, 4096, 3); fr.FileCRC != 0 || len(fr.Chunk) != 10_000-8192 {
		t.Fatalf("tail chunk: fileCRC=%d len=%d", fr.FileCRC, len(fr.Chunk))
	}
	// Version pin mismatch refuses with the held version.
	if resp, _ = fetch(0, 4096, 99); resp.OK || resp.Err != msg.WrongVersionError || resp.Version != 3 {
		t.Fatalf("pin mismatch = %+v", resp)
	}
	// Range past total refuses.
	if resp, _ = fetch(10_000, 1, 0); resp.OK {
		t.Fatal("range at total served")
	}
	// Serve-or-refuse: a fetch for an unheld name answers not-holder, no
	// forwarding (hops stay zero).
	raw, _ := msg.AppendFetchReq(nil, msg.FetchReq{Offset: 0, Length: 64})
	resp, err := NewClient(peers[1].Addr()).Do(&msg.Request{Kind: msg.KindFetch, Name: "absent", Data: raw}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Err != ErrNotHolder || resp.Hops != 0 {
		t.Fatalf("fetch miss = %+v, want not-holder refusal with 0 hops", resp)
	}
	if peers[1].Stats().ChunksServed.Load() != 2 || peers[1].Stats().ChunkRefusals.Load() != 1 {
		t.Fatalf("holder counters: served=%d refusals=%d",
			peers[1].Stats().ChunksServed.Load(), peers[1].Stats().ChunkRefusals.Load())
	}
}

// TestLocateSetAnswer checks the replica-set locate: the holder lists
// itself with the real version plus the other live required holders, and
// the walk forwards a miss exactly like a single-holder locate.
func TestLocateSetAnswer(t *testing.T) {
	peers := startSystem(t, 4, 2, allPIDs(16), hashring.Fixed(4)) // b=2: 4 replicas
	if err := NewClient(peers[3].Addr()).Insert("f", []byte("set")); err != nil {
		t.Fatal(err)
	}
	// Ask a non-holder: the walk must forward to a holder, whose answer
	// lists every live replica.
	resp, err := NewClient(peers[8].Addr()).Do(&msg.Request{Kind: msg.KindLocateSet, Name: "f"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("locate-set: %s", resp.Err)
	}
	hs, err := msg.DecodeHolders(resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) < 2 {
		t.Fatalf("locate-set answered %d holders, want the replica set", len(hs))
	}
	if hs[0].PID != resp.ServedBy || hs[0].Version == 0 {
		t.Fatalf("first holder %+v, want the serving peer with its real version", hs[0])
	}
	for _, h := range hs {
		if h.Addr == "" {
			t.Fatalf("holder %d listed without an address", h.PID)
		}
	}
	// Every listed holder actually serves the head chunk.
	raw, _ := msg.AppendFetchReq(nil, msg.FetchReq{Offset: 0, Length: 1 << 10})
	for _, h := range hs {
		r, err := NewClient(h.Addr).Do(&msg.Request{Kind: msg.KindFetch, Name: "f", Data: raw}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			t.Fatalf("listed holder P(%d) refused the fetch: %s", h.PID, r.Err)
		}
	}
	// Unknown name faults through the walk like any locate.
	resp, err = NewClient(peers[8].Addr()).Do(&msg.Request{Kind: msg.KindLocateSet, Name: "nope"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("locate-set for an absent name answered OK")
	}
}

// TestChunkedGetSurvivesHolderDeath kills one listed replica mid-warm and
// verifies the stripe retries ranges on the survivors.
func TestChunkedGetSurvivesHolderDeath(t *testing.T) {
	peers := startSystem(t, 4, 2, allPIDs(16), hashring.Fixed(4)) // b=2: 4 replicas
	cl := NewLocateClientWith(peers[8].Addr(), peers[8].Transport(), LocateOptions{
		ChunkSize: 2 << 10, ChunkWindow: 4,
	})
	data := chunkPayload(48<<10, 5)
	if err := cl.Insert("f", data); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("f"); err != nil { // warm the replica-set hint
		t.Fatal(err)
	}
	// Find a hinted holder that is NOT the entry peer and kill it.
	res, err := NewClient(peers[8].Addr()).Do(&msg.Request{Kind: msg.KindLocateSet, Name: "f"}, false)
	if err != nil || !res.OK {
		t.Fatalf("locate-set: %v %s", err, res.Err)
	}
	hs, _ := msg.DecodeHolders(res.Data)
	var victim bitops.PID
	for _, h := range hs[1:] {
		victim = bitops.PID(h.PID)
		break
	}
	if victim == 0 && hs[0].PID != 0 {
		t.Skip("single-holder layout; nothing to kill")
	}
	peers[victim].Close()
	got, err := cl.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("payload mismatch after holder death")
	}
	if cl.StreamStats().ChunkRetries.Load() == 0 && cl.LocateStats().Relays.Load() == 0 {
		t.Fatal("holder death neither retried a chunk nor relayed")
	}
}

// Interface check: the pooled peer transport satisfies the stream
// package's Doer without adaptation.
var _ stream.Doer = (*transport.Transport)(nil)
