package gateway

// Tests for the gateway's chunked data plane: multi-chunk miss fills
// striped across replicas, the over-frame read ceiling, the oversize
// write guard, and floor safety of chunk-reassembled fills.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lesslog/internal/msg"
	"lesslog/internal/netnode"
	"lesslog/internal/transport"
)

func chunkPayload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestGatewayChunkedMiss is the acceptance path through the edge: a file
// larger than one chunk inserts through the gateway and a cache-miss get
// comes back via a striped chunked transfer, bytes intact (the stream
// layer verifies per-chunk and whole-file CRC-32C before the fill is
// admitted).
func TestGatewayChunkedMiss(t *testing.T) {
	addrs, _ := startLocateFabric(t, 4, 1, 16) // B=1: two replicas
	g := newGateway(t, Config{Peers: addrs[:3], CacheSize: -1, ChunkSize: 4 << 10})
	data := chunkPayload(64<<10, 21) // 16 chunks
	if _, err := g.Insert("g/chunky", data); err != nil {
		t.Fatal(err)
	}
	res, err := g.Get("g/chunky")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("chunked fill returned %d bytes, payload mismatch", len(res.Data))
	}
	c := g.Counters()
	if c.ChunkedGets.Value() != 1 {
		t.Fatalf("chunked fills = %d, want 1", c.ChunkedGets.Value())
	}
	if s := g.countersSnapshot(); s.ChunksFetched < 16 {
		t.Fatalf("chunks fetched = %d, want >= 16", s.ChunksFetched)
	}
	// Warm path: the replica-set hint serves the next miss without a
	// locate walk.
	locates := c.Locates.Value()
	if _, err := g.Get("g/chunky"); err != nil {
		t.Fatal(err)
	}
	if c.Locates.Value() != locates || c.HintHits.Value() != 1 {
		t.Fatalf("warm miss: locates=%d (was %d) hint-hits=%d",
			c.Locates.Value(), locates, c.HintHits.Value())
	}
}

// TestGatewayOverFrameRead proves the edge read ceiling is msg.MaxFileSize,
// not one frame: a copy larger than msg.MaxData (seeded directly into the
// holder stores, bypassing the write plane) is served through the gateway
// by chunked reassembly.
func TestGatewayOverFrameRead(t *testing.T) {
	if testing.Short() {
		t.Skip("seeds a >16 MiB payload per holder")
	}
	addrs, peers := startLocateFabric(t, 3, 0, 4)
	g := newGateway(t, Config{Peers: addrs[:2], CacheSize: -1})
	data := chunkPayload(msg.MaxData+(1<<20), 22) // 17 MiB
	// Seed every peer: the lookup walk routes by name hash, so wherever it
	// lands, a holder answers.
	for _, p := range peers {
		p.SeedLocal("g/huge", data, 1)
	}
	res, err := g.Get("g/huge")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("over-frame read returned %d bytes, want %d intact", len(res.Data), len(data))
	}
}

// TestGatewayOverFrameIsNotAFault: a body over one frame that the gateway
// can only be offered whole is reported as such, never as "not found" — a
// miss whose chunk plane fails transiently re-resolves and serves it, and
// one whose chunk plane stays down names the typed error.
func TestGatewayOverFrameIsNotAFault(t *testing.T) {
	if testing.Short() {
		t.Skip("seeds a >16 MiB payload per holder")
	}
	addrs, peers := startLocateFabric(t, 3, 1, 4)
	data := chunkPayload(msg.MaxData+(1<<20), 26) // 17 MiB
	// Place the name where an insert would, then swap the over-frame body
	// in at exactly those holders: every locate-set answers the two
	// primaries and nothing else.
	if err := netnode.NewClient(addrs[0]).Insert("g/huge", []byte("placeholder")); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if p.HasFile("g/huge") {
			p.SeedLocal("g/huge", data, 1<<40)
		}
	}
	// Both sources of the first locate-set's transfer are dropped (one
	// attempt each): the miss reaches the relay rung, which answers
	// over-frame, and resolves once more.
	faults := transport.NewFaults().Add(transport.Rule{Kind: msg.KindFetch, Drop: true, Times: 2})
	g := newGateway(t, Config{
		Peers: addrs[:2], CacheSize: -1,
		Transport: transport.Config{Retries: -1}, Faults: faults,
	})
	res, err := g.Get("g/huge")
	if err != nil {
		t.Fatalf("get behind a flaky chunk plane: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatalf("served %d bytes, want the %d-byte body intact", len(res.Data), len(data))
	}
	if c := g.Counters(); c.Relays.Value() != 1 || c.Locates.Value() != 2 {
		t.Fatalf("relays=%d locates=%d, want 1/2 (relay refused over-frame, re-resolved)",
			c.Relays.Value(), c.Locates.Value())
	}

	// With the chunk plane down for good, the relay's typed refusal is the
	// answer the caller sees; a name no peer holds is the fault.
	down := newGateway(t, Config{
		Peers: addrs[:2], CacheSize: -1, Transport: transport.Config{Retries: -1},
		Faults: transport.NewFaults().Add(transport.Rule{Kind: msg.KindFetch, Drop: true}),
	})
	if _, err := down.Get("g/huge"); !errors.Is(err, ErrOverFrame) || errors.Is(err, ErrFault) {
		t.Fatalf("over-frame get without a chunk plane: err = %v, want ErrOverFrame and not ErrFault", err)
	}
	if _, err := down.Get("g/absent"); !errors.Is(err, ErrFault) {
		t.Fatalf("absent get: err = %v, want ErrFault", err)
	}
}

// TestGatewayWireOverFrameKeepsConnection: a client of the gateway's wire
// listener asking for a body only the chunk plane can carry gets the typed
// over-frame refusal — not a torn-down connection that fails every get
// pipelined beside it and every request after it.
func TestGatewayWireOverFrameKeepsConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("seeds a >16 MiB payload per holder")
	}
	addrs, peers := startLocateFabric(t, 3, 0, 4)
	g := newGateway(t, Config{Peers: addrs[:2], CacheSize: -1})
	data := chunkPayload(msg.MaxData+(1<<20), 27) // 17 MiB
	for _, p := range peers {
		p.SeedLocal("g/huge", data, 1)
	}
	const small = 7
	for i := 0; i < small; i++ {
		if _, err := g.Insert(fmt.Sprintf("g/s%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := netnode.DialConn(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// One big get and seven small ones in flight together on one stream.
	resps := make([]*msg.Response, small+1)
	errs := make([]error, small+1)
	var wg sync.WaitGroup
	for i := range resps {
		name := "g/huge"
		if i > 0 {
			name = fmt.Sprintf("g/s%d", i-1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = conn.Do(&msg.Request{Kind: msg.KindGet, Name: name})
		}()
	}
	wg.Wait()
	if errs[0] != nil {
		t.Fatalf("over-frame get: transport error %v, want the over-frame refusal", errs[0])
	}
	if resps[0].OK || resps[0].Err != msg.OverFrameError {
		t.Fatalf("over-frame get answered %+v, want the over-frame refusal", resps[0])
	}
	for i := 1; i <= small; i++ {
		if errs[i] != nil || !resps[i].OK || !bytes.Equal(resps[i].Data, []byte{byte(i - 1)}) {
			t.Fatalf("small get g/s%d beside the big one: %+v, %v", i-1, resps[i], errs[i])
		}
	}
	if res, err := conn.Get("g/s0"); err != nil || !bytes.Equal(res.Data, []byte{0}) {
		t.Fatalf("get after the refusal on the same connection: %+v, %v", res, err)
	}
	if n := g.Counters().ProtoErrors.Value(); n != 0 {
		t.Fatalf("gateway proto_errors = %d, want 0", n)
	}
	if _, err := conn.Get("g/huge"); !errors.Is(err, ErrOverFrame) {
		t.Fatalf("Conn.Get of the big name: err = %v, want ErrOverFrame", err)
	}
	if _, err := netnode.NewClient(srv.Addr()).Get("g/huge"); !errors.Is(err, ErrOverFrame) {
		t.Fatalf("plain client get through the gateway: err = %v, want ErrOverFrame", err)
	}
}

// TestGatewayChunkedPutEndToEnd is the write half of the acceptance
// path: a payload at the full file-size cap — four times the frame cap —
// inserts through the gateway's streaming upload plane and reads back
// byte-identical through the chunked fetch plane. The ChunkedPuts
// counter proves the staged path carried it, not a whole-frame write.
func TestGatewayChunkedPutEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 64 MiB payload through the edge")
	}
	addrs, _ := startLocateFabric(t, 3, 0, 4)
	g := newGateway(t, Config{Peers: addrs[:2], CacheSize: -1})
	data := chunkPayload(msg.MaxFileSize, 25)
	want := sha256.Sum256(data)
	wr, err := g.Insert("g/colossal", data)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Counters()
	if c.ChunkedPuts.Value() != 1 || c.Inserts.Value() != 1 {
		t.Fatalf("chunked puts = %d inserts = %d, want 1/1",
			c.ChunkedPuts.Value(), c.Inserts.Value())
	}
	res, err := g.Get("g/colossal")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version < wr.Version {
		t.Fatalf("readback version %d below acknowledged %d", res.Version, wr.Version)
	}
	if got := sha256.Sum256(res.Data); got != want {
		t.Fatalf("readback of %d bytes is not byte-identical to the upload", len(res.Data))
	}
}

// TestGatewayOversizeWriteRejected: the edge refuses writes past the
// file size cap with the typed error and counter before any bytes reach
// the fabric. (Writes between one frame and the cap stream through the
// chunked put plane instead of being refused.)
func TestGatewayOversizeWriteRejected(t *testing.T) {
	addrs, _ := startLocateFabric(t, 3, 0, 4)
	g := newGateway(t, Config{Peers: addrs[:1]})
	big := make([]byte, msg.MaxFileSize+1)
	if _, err := g.Insert("g/big", big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize insert err = %v, want ErrTooLarge", err)
	}
	if _, err := g.Update("g/big", big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize update err = %v, want ErrTooLarge", err)
	}
	c := g.Counters()
	if c.OversizeRejects.Value() != 2 {
		t.Fatalf("oversize counter = %d, want 2", c.OversizeRejects.Value())
	}
	if c.Inserts.Value() != 0 || c.Updates.Value() != 0 {
		t.Fatal("oversize write was acknowledged")
	}
}

// TestGatewayChunkedFloor: a chunk-reassembled fill is still subject to
// the version floor — after the gateway acknowledges an update, a chunked
// miss can never fill with the older version.
func TestGatewayChunkedFloor(t *testing.T) {
	addrs, _ := startLocateFabric(t, 4, 1, 16)
	g := newGateway(t, Config{Peers: addrs[:3], CacheSize: -1, ChunkSize: 1 << 10})
	v1 := chunkPayload(8<<10, 23)
	v2 := chunkPayload(8<<10, 24)
	if _, err := g.Insert("g/floor", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Get("g/floor"); err != nil { // warm the replica-set hint
		t.Fatal(err)
	}
	wr, err := g.Update("g/floor", v2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Get("g/floor")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version < wr.Version || !bytes.Equal(res.Data, v2) {
		t.Fatalf("post-update chunked get v%d (floor %d), payload match=%v",
			res.Version, wr.Version, bytes.Equal(res.Data, v2))
	}
}
