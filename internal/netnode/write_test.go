package netnode

// End-to-end tests for the chunked write plane (docs/ROUTING.md "The
// write plane"): over-frame inserts streamed through staged puts,
// hint-guided write entry, notify/pull update propagation, crash safety
// of the staging table, mixed-fabric whole-frame fallback, fault-driven
// pull loss converging through the repair plane, and the traced notify
// fan-out tree.

import (
	"bytes"
	"crypto/sha256"
	"hash/crc32"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/repair"
	"lesslog/internal/stream"
	"lesslog/internal/transport"
)

// sumWriteStat folds one write-plane counter across the fleet.
func sumWriteStat(peers map[bitops.PID]*Peer, read func(*Stats) uint64) uint64 {
	var n uint64
	for _, p := range peers {
		n += read(p.Stats())
	}
	return n
}

// TestChunkedInsertEndToEnd is the acceptance path: a payload at the
// msg.MaxFileSize ceiling — four times the single-frame cap — inserts
// through the ordinary client, lands one copy per subtree, and reads
// back sha256-identical through the chunked data plane.
func TestChunkedInsertEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("moves a 64 MiB payload through the fabric")
	}
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.Fixed(4))
	data := chunkPayload(msg.MaxFileSize, 31)
	want := sha256.Sum256(data)

	cl := NewClient(peers[2].Addr())
	if err := cl.Insert("w/huge", data); err != nil {
		t.Fatal(err)
	}
	if got := cl.LocateStats().ChunkedPuts.Load(); got != 1 {
		t.Fatalf("chunked puts = %d, want 1", got)
	}
	var holders []bitops.PID
	for pid, p := range peers {
		if p.store.Has("w/huge") {
			holders = append(holders, pid)
			f, _ := p.store.Peek("w/huge")
			if sha256.Sum256(f.Data) != want {
				t.Fatalf("copy at P(%d) corrupted (%d bytes)", pid, len(f.Data))
			}
		}
	}
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want one per subtree", holders)
	}
	res, err := NewLocateClient(peers[9].Addr()).Get("w/huge")
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(res.Data) != want {
		t.Fatalf("readback of %d bytes is not sha256-identical", len(res.Data))
	}
}

// TestNotifyUpdatePropagation drives an update across hand-placed
// replicas: every copy converges, the replicas pull
// the body instead of receiving it, and the broadcast tree itself moves
// payload-independent bytes — the O(copies × size) → O(copies) claim.
func TestNotifyUpdatePropagation(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[2].Addr()).Insert("w/n", chunkPayload(1<<10, 40)); err != nil {
		t.Fatal(err)
	}
	NewClient(peers[5].Addr()).Store("w/n", chunkPayload(1<<10, 40), 1, true)
	NewClient(peers[7].Addr()).Store("w/n", chunkPayload(1<<10, 40), 1, true)

	// 512 KiB: far under one frame — the payload could ride the tree, and
	// must not.
	v2 := chunkPayload(512<<10, 41)
	fanout0 := sumWriteStat(peers, func(s *Stats) uint64 { return s.FanoutBytes.Load() })
	n, err := NewClient(peers[3].Addr()).Update("w/n", v2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("updated %d copies, want 3", n)
	}
	for _, pid := range []bitops.PID{4, 5, 7} {
		f, ok := peers[pid].store.Peek("w/n")
		if !ok || !bytes.Equal(f.Data, v2) {
			t.Fatalf("P(%d) did not converge (ok=%v, %d bytes)", pid, ok, len(f.Data))
		}
	}
	if pulls := sumWriteStat(peers, func(s *Stats) uint64 { return s.NotifyPulls.Load() }); pulls == 0 {
		t.Fatal("no replica pulled the body; the payload rode the tree")
	}
	// The tree carried notify frames (tens of bytes each), not 512 KiB
	// per leg: total broadcast payload stays under one payload copy.
	fanout := sumWriteStat(peers, func(s *Stats) uint64 { return s.FanoutBytes.Load() }) - fanout0
	if fanout >= uint64(len(v2)) {
		t.Fatalf("broadcast legs carried %d payload bytes for a %d-byte update", fanout, len(v2))
	}
}

// TestCrashMidUploadLeavesNoPartial stages part of an upload at a
// durable peer, crashes it, and proves the partial is neither served nor
// replayed from the log; the retried upload then converges and survives
// a further restart.
func TestCrashMidUploadLeavesNoPartial(t *testing.T) {
	dir := t.TempDir()
	peers := startDurableSystem(t, 2, 0, 4, hashring.Fixed(0), dir)
	data := chunkPayload(64<<10, 50)
	fileCRC := crc32.Checksum(data, castagnoli)

	// Open a staging session and send half the payload, no commit.
	open, err := msg.AppendPutReq(nil, &msg.PutReq{
		Op: msg.PutData, TotalSize: uint64(len(data)), FileCRC: fileCRC,
		ChunkCRC: crc32.Checksum(data[:32<<10], castagnoli), Chunk: data[:32<<10],
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewClient(peers[0].Addr()).Do(&msg.Request{Kind: msg.KindPut, Name: "w/partial", Data: open}, false)
	if err != nil || !resp.OK || resp.Version == 0 {
		t.Fatalf("open frame: %+v, %v", resp, err)
	}
	if peers[0].store.Has("w/partial") {
		t.Fatal("staged bytes are visible before commit")
	}
	if _, err := NewClient(peers[1].Addr()).Get("w/partial"); err == nil {
		t.Fatal("mid-upload get served a partial version")
	}

	// Crash/restart: staging is memory-only, so the log replays nothing.
	p0 := restartPeer(t, peers[0], peers[1])
	if p0.store.Has("w/partial") {
		t.Fatal("restart replayed a partial upload from the log")
	}

	// The retried upload (full, chunked) commits and becomes durable.
	tr := transport.New(transport.Config{}, nil)
	t.Cleanup(func() { tr.Close() })
	up := stream.NewUploader(tr, stream.Config{ChunkSize: 4 << 10})
	if _, err := up.Put(p0.Addr(), "w/partial", data, msg.PutInsert); err != nil {
		t.Fatal(err)
	}
	res, err := NewClient(peers[1].Addr()).Get("w/partial")
	if err != nil || !bytes.Equal(res.Data, data) {
		t.Fatalf("post-retry get: %d bytes, %v", len(res.Data), err)
	}
	p0 = restartPeer(t, p0, peers[1])
	if f, ok := p0.store.Peek("w/partial"); !ok || !bytes.Equal(f.Data, data) {
		t.Fatal("committed upload did not survive the restart")
	}
}

// TestWriteEntryAtHolder covers hint-guided write entry: a locate-mode
// client's update starts the broadcast at the holder (refreshing the
// hint off the ack), a hintless locate client resolves the holder with
// one walk, and a pre-locate client still enters at its configured peer.
func TestWriteEntryAtHolder(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	tr := transport.New(transport.Config{}, nil)
	t.Cleanup(func() { tr.Close() })
	cl := NewLocateClientWith(peers[2].Addr(), tr, LocateOptions{})
	if err := cl.Insert("w/entry", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("w/entry"); err != nil { // warm the hint
		t.Fatal(err)
	}
	locates := cl.LocateStats().Locates.Load()
	if _, err := cl.Update("w/entry", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := peers[4].Stats().WritesAtHolder.Load(); got != 1 {
		t.Fatalf("holder-entry writes at P(4) = %d, want 1", got)
	}
	if cl.LocateStats().Locates.Load() != locates {
		t.Fatal("hinted update paid a locate walk")
	}
	if got := cl.LocateStats().HintRefreshes.Load(); got != 1 {
		t.Fatalf("hint refreshes = %d, want 1", got)
	}

	// A fresh locate client has no hint: one walk resolves the holder and
	// the write still enters there.
	cold := NewLocateClientWith(peers[9].Addr(), tr, LocateOptions{})
	if _, err := cold.Update("w/entry", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if got := peers[4].Stats().WritesAtHolder.Load(); got != 2 {
		t.Fatalf("holder-entry writes after locate-walk update = %d, want 2", got)
	}
	if cold.LocateStats().Locates.Load() != 1 {
		t.Fatalf("cold update locates = %d, want 1", cold.LocateStats().Locates.Load())
	}

	// The pre-locate client enters at its peer; P(2) holds no copy, so the
	// entry is counted remote and the walk finds the holder as ever.
	if _, err := NewClient(peers[2].Addr()).Update("w/entry", []byte("v4")); err != nil {
		t.Fatal(err)
	}
	if got := peers[2].Stats().WritesRemote.Load(); got == 0 {
		t.Fatal("relay-entry update not counted at the entry peer")
	}
}

// TestNotifyPullLossConvergesViaRepair scripts the propagation fault the
// pull design must survive: the notify leg to one replica holder is
// dropped, the broadcast completes without it, and the anti-entropy
// repair plane converges the skipped copy afterwards.
func TestNotifyPullLossConvergesViaRepair(t *testing.T) {
	sys := startFaultSystem(t, 4, 1, 16, hashring.Fixed(4), tightTransport())
	if err := NewClient(sys.addr(2)).Insert("w/loss", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	var holders []bitops.PID
	for pid, p := range sys.peers {
		if p.store.Has("w/loss") {
			holders = append(holders, pid)
		}
	}
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want one per subtree", holders)
	}
	victim := holders[0]
	if victim == 4 {
		victim = holders[1]
	}
	cancel := sys.faults.AddCancel(transport.Rule{
		Addr: sys.addr(victim), Kind: msg.KindNotify, Drop: true,
	})

	v2 := chunkPayload(512<<10, 70)
	if _, err := NewClient(sys.addr(2)).Update("w/loss", v2); err != nil {
		t.Fatal(err)
	}
	if f, _ := sys.peers[victim].store.Peek("w/loss"); bytes.Equal(f.Data, v2) {
		t.Fatal("setup: the dropped notify leg converged anyway")
	}
	cancel()

	// One repair round at the converged holder pushes the newer version.
	for _, pid := range holders {
		if pid != victim {
			sys.peers[pid].RepairOnce(&repair.Sampler{}, repair.NewBudget(-1, 0), -1)
		}
	}
	f, ok := sys.peers[victim].store.Peek("w/loss")
	if !ok || !bytes.Equal(f.Data, v2) {
		t.Fatalf("repair did not converge the skipped replica (ok=%v, %d bytes)", ok, len(f.Data))
	}
}

// TestTracedNotifyUpdateTree: a traced update assembles the broadcast-tree
// shape — one HopFanout root at the entry peer, one HopDeliver per holder,
// every hop parented inside the trace — while its holders pull the body.
func TestTracedNotifyUpdateTree(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[2].Addr()).Insert("w/trace", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	NewClient(peers[5].Addr()).Store("w/trace", []byte("v1"), 1, true)
	NewClient(peers[7].Addr()).Store("w/trace", []byte("v1"), 1, true)

	v2 := chunkPayload(512<<10, 80)
	n, path, err := NewClient(peers[3].Addr()).UpdateTraced("w/trace", v2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("updated %d copies, want 3", n)
	}
	if sumWriteStat(peers, func(s *Stats) uint64 { return s.NotifyPulls.Load() }) == 0 {
		t.Fatal("traced update did not go through the notify plane")
	}
	if len(path) == 0 || path[0].Action != msg.HopFanout || path[0].PID != 3 || path[0].Parent != msg.NoParent {
		t.Fatalf("trace root = %+v, want HopFanout at P(3)", path)
	}
	delivered := hopSet(path, msg.HopDeliver)
	if len(delivered) != 3 || !delivered[4] || !delivered[5] || !delivered[7] {
		t.Fatalf("HopDeliver set = %v, want {4, 5, 7}", delivered)
	}
	assertTree(t, path)
}
