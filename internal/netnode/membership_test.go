package netnode

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/store"
	"lesslog/internal/transport"
)

func TestJoinBootstrapsAndRegisters(t *testing.T) {
	peers := startSystem(t, 4, 0, []bitops.PID{0, 1, 2, 3}, nil)
	joiner, err := Listen(Config{PID: 9, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.Join(peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	// Every existing peer (and the joiner) now knows all five members.
	for pid, p := range peers {
		rt := p.rt()
		n := rt.live.LiveCount()
		addr := rt.addrs[9]
		if n != 5 {
			t.Fatalf("P(%d) sees %d live members, want 5", pid, n)
		}
		if addr != joiner.Addr() {
			t.Fatalf("P(%d) has wrong address for the joiner: %q", pid, addr)
		}
	}
	n := joiner.rt().live.LiveCount()
	if n != 5 {
		t.Fatalf("joiner sees %d members", n)
	}
}

// eachBodySize runs a placement scenario twice: with a body one frame
// carries, and with one three bytes over the frame cap — the size at which
// a placement has to ride a payload-free notify and be pulled in chunks
// (docs/ROUTING.md "Placement").
func eachBodySize(t *testing.T, scenario func(t *testing.T, body []byte)) {
	t.Run("small", func(t *testing.T) { scenario(t, []byte("keep")) })
	t.Run("overframe", func(t *testing.T) {
		if testing.Short() {
			t.Skip("over-frame payloads in -short")
		}
		scenario(t, chunkPayload(msg.MaxData+3, 21))
	})
}

// readerFor returns a client that can read body back from addr: a plain
// get cannot carry a body over one frame, the locate ladder can.
func readerFor(addr string, body []byte) *Client {
	if len(body) > msg.MaxData {
		return NewLocateClient(addr)
	}
	return NewClient(addr)
}

// wantCopy asserts p holds name byte-identical to want, at want's version
// and as the given kind.
func wantCopy(t *testing.T, p *Peer, want store.File, kind store.Kind) {
	t.Helper()
	f, ok := p.store.Peek(want.Name)
	if !ok {
		t.Fatalf("P(%d) holds no copy of %q", p.PID(), want.Name)
	}
	if !bytes.Equal(f.Data, want.Data) || f.Version != want.Version {
		t.Fatalf("P(%d) holds %q as %d bytes at v%d, want %d bytes at v%d",
			p.PID(), want.Name, len(f.Data), f.Version, len(want.Data), want.Version)
	}
	if k, _ := p.store.KindOf(want.Name); k != kind {
		t.Fatalf("P(%d) holds %q as kind %v, want %v", p.PID(), want.Name, k, kind)
	}
}

// wantUncharged asserts that placing on target cost it nothing at the
// sender's failure detector: the liveness bit is set and was never flipped
// (Leave re-registers with everyone afterwards, which would heal the bit
// but not the flip count).
func wantUncharged(t *testing.T, sender *Peer, target bitops.PID) {
	t.Helper()
	if !sender.IsLive(target) || sender.Stats().PeersDown.Load() != 0 {
		t.Fatalf("placement charged P(%d)'s failure detector at P(%d): live=%v, flips down=%d",
			target, sender.PID(), sender.IsLive(target), sender.Stats().PeersDown.Load())
	}
}

func TestJoinTriggersFileHandoff(t *testing.T) {
	eachBodySize(t, func(t *testing.T, body []byte) {
		// The paper's §5.1 example over sockets: P(4) and P(5) absent, ψ(f)
		// targets P(4), so the file sits at P(6). When P(5) joins, P(6) must
		// hand the copy over — P(5)'s VID outranks P(6)'s in P(4)'s tree.
		var pids []bitops.PID
		for i := 0; i < 16; i++ {
			if i != 4 && i != 5 {
				pids = append(pids, bitops.PID(i))
			}
		}
		peers := startSystem(t, 4, 0, pids, hashring.Fixed(4))
		if err := NewClient(peers[0].Addr()).Insert("f", body); err != nil {
			t.Fatal(err)
		}
		want, ok := peers[6].store.Peek("f")
		if !ok {
			t.Fatal("precondition: file not at P(6)")
		}
		joiner, err := Listen(Config{PID: 5, M: 4, Hasher: hashring.Fixed(4)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { joiner.Close() })
		storedAt6 := peers[6].Stats().Stored.Load()
		if err := joiner.Join(peers[3].Addr()); err != nil {
			t.Fatal(err)
		}
		if peers[6].store.Has("f") {
			t.Fatal("P(6) kept the copy after handoff")
		}
		wantCopy(t, joiner, want, store.Inserted)
		wantUncharged(t, peers[6], 5)
		// One handoff: placed at the sender, stored at the receiver — the
		// sender's own stored count does not move.
		if placed, stored := peers[6].Stats().PlacedHandoff.Load(), peers[6].Stats().Stored.Load(); placed != 1 || stored != storedAt6 {
			t.Fatalf("P(6) counts placed_handoff=%d (want 1), stored %d -> %d (want unchanged)", placed, storedAt6, stored)
		}
		if got := joiner.Stats().Stored.Load(); got != 1 {
			t.Fatalf("joiner counts stored=%d, want 1", got)
		}
		// And gets now resolve at P(5).
		res, err := readerFor(peers[8].Addr(), body).Get("f")
		if err != nil || res.ServedBy != 5 {
			t.Fatalf("get = served by P(%d), %v", res.ServedBy, err)
		}
	})
}

func TestLeaveHandsOffInsertedFiles(t *testing.T) {
	eachBodySize(t, func(t *testing.T, body []byte) {
		// B = 0: P(4) holds the only copy, so a handoff that does not happen
		// takes an acknowledged file out of the system.
		peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
		if err := NewClient(peers[2].Addr()).Insert("f", body); err != nil {
			t.Fatal(err)
		}
		want, ok := peers[4].store.Peek("f")
		if !ok {
			t.Fatal("precondition: file not at P(4)")
		}
		if err := peers[4].Leave(); err != nil {
			t.Fatal(err)
		}
		peers[4].Close()
		// The copy moved to the next primary, P(5) (VID 1110).
		wantCopy(t, peers[5], want, store.Inserted)
		wantUncharged(t, peers[4], 5)
		if got := peers[4].Stats().PlacedHandoff.Load(); got != 1 {
			t.Fatalf("P(4) counts placed_handoff=%d, want 1", got)
		}
		// Everyone marked P(4) dead; gets keep working.
		res, err := readerFor(peers[11].Addr(), body).Get("f")
		if err != nil || res.ServedBy != 5 {
			t.Fatalf("get after leave = served by P(%d), %v", res.ServedBy, err)
		}
	})
}

func TestHandoffPromotesHeldReplica(t *testing.T) {
	// §6 put a replica of P(4)'s hot file on P(5), the very peer §5.2 hands
	// the file to when P(4) leaves. The handoff finds a copy at its version
	// already there and keeps it — as the inserted copy it now is, not as a
	// replica the next cold window evicts (at B = 0, the last copy).
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		NewClient(peers[4].Addr()).Get("f")
	}
	if placed, ok := peers[4].MaintainOnce(10, 0); !ok || placed != 5 {
		t.Fatalf("precondition: replica at P(%d), %v; want P(5)", placed, ok)
	}
	if err := peers[4].Leave(); err != nil {
		t.Fatal(err)
	}
	if k, _ := peers[5].store.KindOf("f"); k != store.Inserted {
		t.Fatalf("P(5) holds the handed-off file as kind %v", k)
	}
	peers[5].MaintainOnce(1000, 1)
	if !peers[5].store.Has("f") {
		t.Fatal("the only copy was evicted as a cold replica")
	}
}

func TestLeaveFallsBackWhenSuccessorIsDead(t *testing.T) {
	// Double failure during departure: P(4) leaves gracefully while its
	// §5.2 handoff successor P(5) (VID 1110 in P(4)'s tree) has already
	// crashed — silently, so P(4)'s first view still believes it live. The
	// failed handoff call must feed the detector and the retry's fresh
	// view must pick the §3 FINDLIVENODE fallback P(6) instead of
	// aborting the leave or stranding the copy.
	sys := startFaultSystem(t, 4, 0, 16, hashring.Fixed(4), tightTransport())
	if err := NewClient(sys.addr(2)).Insert("f", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if !sys.peers[4].store.Has("f") {
		t.Fatal("precondition: file not at P(4)")
	}
	five := sys.peers[5]
	delete(sys.peers, 5)
	five.Close() // crash, no registration broadcast
	if err := sys.peers[4].Leave(); err != nil {
		t.Fatalf("leave with dead successor: %v", err)
	}
	f, ok := sys.peers[6].store.Peek("f")
	if !ok || !bytes.Equal(f.Data, []byte("keep")) {
		t.Fatalf("fallback copy at P(6) = %+v, %v", f, ok)
	}
	if k, _ := sys.peers[6].store.KindOf("f"); k != store.Inserted {
		t.Fatal("fallback copy lost its inserted kind")
	}
	if sys.peers[4].rt().live.IsLive(5) {
		t.Fatal("failed handoff did not flip the dead successor's liveness bit")
	}
}

func TestLeaveDoesNotLoseRacingUpdate(t *testing.T) {
	// Leave vs an in-flight update broadcast (the propMu serialization):
	// a writer hammers rewrites of the one copy at P(4) while P(4) leaves.
	// Every update the client saw succeed must be reflected at the
	// successor — without the handoff/propagation serialization, Leave can
	// snapshot the copy just before a rewrite lands and hand the stale
	// bytes to P(5), which then silently masks the acknowledged write.
	// Run with -race: the window is also a pure data race on the store.
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewClient(peers[2].Addr())
	if err := cl.Insert("f", []byte("v0000")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	lastOK := "v0000" // zero-padded: payload order is lexicographic order
	go func() {
		defer close(done)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			data := fmt.Sprintf("v%04d", i)
			if _, err := cl.Update("f", []byte(data)); err == nil {
				lastOK = data
			}
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the writer reach mid-broadcast
	if err := peers[4].Leave(); err != nil {
		t.Fatal(err)
	}
	peers[4].Close()
	close(stop)
	<-done
	f, ok := peers[5].store.Peek("f")
	if !ok {
		t.Fatal("copy did not survive the leave")
	}
	if string(f.Data) < lastOK {
		t.Fatalf("successor holds %q, older than acknowledged update %q", f.Data, lastOK)
	}
}

func TestJoinDoesNotLoseRacingUpdate(t *testing.T) {
	// Join vs an in-flight update broadcast, the handoff side of the propMu
	// serialization. P(4) is absent at insert time, so ψ(f) = 4 puts the
	// only copy (B = 0) at P(5). P(4) joins through P(0), which relays the
	// registration in PID order: P(5) hands the copy over while P(9), later
	// in that order, still sees P(4) dead and delivers the writer's updates
	// to P(5). A delay on the placement to P(4) holds the handoff open.
	// Every update the writer saw succeed must be at P(4) afterwards —
	// without the serialization P(5) applies and acknowledges an update
	// between its Peek and its Delete, and deletes it with the copy.
	faults := transport.NewFaults()
	var pids []bitops.PID
	for i := 0; i < 16; i++ {
		if i != 4 {
			pids = append(pids, bitops.PID(i))
		}
	}
	cfg := Config{M: 4, B: 0, Hasher: hashring.Fixed(4), Faults: faults}
	peers := startSystemWith(t, pids, cfg)
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("v0000")); err != nil {
		t.Fatal(err)
	}
	if !peers[5].store.Has("f") {
		t.Fatal("precondition: file not at P(5)")
	}
	cfg.PID = 4
	joiner, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	faults.Add(transport.Rule{Addr: joiner.Addr(), Kind: msg.KindNotify, Delay: 200 * time.Millisecond})

	// The writer stops once P(5) has let go of its copy: later updates
	// would reach P(4) and overwrite whatever the handoff lost.
	done := make(chan struct{})
	lastOK := "v0000" // zero-padded: payload order is lexicographic order
	cl := NewClient(peers[9].Addr())
	go func() {
		defer close(done)
		for i := 1; peers[5].store.Has("f"); i++ {
			data := fmt.Sprintf("v%04d", i)
			if _, err := cl.Update("f", []byte(data)); err == nil {
				lastOK = data
			}
		}
	}()
	if err := joiner.Join(peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	<-done
	f, ok := joiner.store.Peek("f")
	if !ok {
		t.Fatal("copy did not reach the joiner")
	}
	if string(f.Data) < lastOK {
		t.Fatalf("joiner holds %q, older than acknowledged update %q", f.Data, lastOK)
	}
}

func TestFailureRecoveryAcrossSubtrees(t *testing.T) {
	eachBodySize(t, func(t *testing.T, body []byte) {
		// B = 1 over sockets: two copies. Kill one holder without warning;
		// ReportFailure from any peer restores the copy in the orphaned
		// subtree from the sibling holder.
		peers := startSystem(t, 4, 1, allPIDs(16), hashring.Fixed(4))
		if err := NewClient(peers[1].Addr()).Insert("f", body); err != nil {
			t.Fatal(err)
		}
		holders := holdersOf(peers, "f")
		if len(holders) != 2 {
			t.Fatalf("holders = %v", holders)
		}
		if got := peers[1].Stats().PlacedInsert.Load(); got != 2 {
			t.Fatalf("entry peer counts placed_insert=%d, want one per subtree", got)
		}
		victim, sibling := holders[0], holders[1]
		want, _ := peers[sibling].store.Peek("f")
		peers[victim].Close()
		delete(peers, victim)
		var reporter *Peer
		for _, p := range peers {
			reporter = p
			break
		}
		reporter.ReportFailure(victim)
		// The orphaned subtree's fresh primary holds the file again.
		v := reporter.view(4)
		heir, ok := v.PrimaryOf(victim)
		if !ok {
			t.Fatal("the failed subtree has no live member left")
		}
		wantCopy(t, peers[heir], want, store.Inserted)
		wantUncharged(t, peers[sibling], heir)
		if got := peers[sibling].Stats().PlacedRestore.Load(); got != 1 {
			t.Fatalf("P(%d) counts placed_restore=%d, want 1", sibling, got)
		}
		// All origins still resolve.
		for pid := range peers {
			if _, err := readerFor(peers[pid].Addr(), body).Get("f"); err != nil {
				t.Fatalf("get from P(%d) after failure: %v", pid, err)
			}
		}
	})
}

func TestParseTable(t *testing.T) {
	table, err := parseTable([]byte("table 3 1 default\n0 a:1\n3 b:2 down\n"))
	if err != nil || table.m != 3 || table.b != 1 || !table.defaultHash ||
		len(table.addrs) != 2 || table.addrs[3] != "b:2" || !table.down[3] || table.down[0] {
		t.Fatalf("table = %+v, %v", table, err)
	}
	if table, err := parseTable([]byte("table 4 0 other\n  \n")); err != nil || table.defaultHash || len(table.addrs) != 0 {
		t.Fatalf("empty table = %+v, %v", table, err)
	}
	for _, bad := range []string{
		"",                              // no header
		"0 a:1\n",                       // the old headerless form
		"table 3 3 default\n",           // B must be below M
		"table 0 0 default\n",           // M out of range
		"table 3 1 fnv\n",               // unknown hasher word
		"table 3 1 default\njunk\n",     // line without an address
		"table 3 1 default\nx y\n",      // PID not a number
		"table 3 1 default\n8 a:1\n",    // PID outside 2^M
		"table 3 1 default\n0 a:1 up\n", // unknown mark
	} {
		if table, err := parseTable([]byte(bad)); err == nil {
			t.Fatalf("malformed table %q accepted as %+v", bad, table)
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	peers := startSystem(t, 3, 1, []bitops.PID{0, 2, 5}, nil)
	peers[2].peerDown(5) // the detector's verdict travels as a down mark
	resp, err := NewClient(peers[2].Addr()).Do(&msg.Request{Kind: msg.KindTable}, false)
	if err != nil || !resp.OK {
		t.Fatalf("table call: %+v, %v", resp, err)
	}
	table, err := parseTable(resp.Data)
	if err != nil {
		t.Fatal(err)
	}
	if table.m != 3 || table.b != 1 || !table.defaultHash {
		t.Fatalf("shape M=%d B=%d default=%v, want 3/1/true", table.m, table.b, table.defaultHash)
	}
	if len(table.addrs) != 3 || table.addrs[5] != peers[5].Addr() || !table.down[5] || len(table.down) != 1 {
		t.Fatalf("table = %+v", table)
	}
	again, err := parseTable(table.encode())
	if err != nil || !reflect.DeepEqual(again, table) {
		t.Fatalf("re-encoded table = %+v, %v; want %+v", again, err, table)
	}
	fixed := startSystem(t, 3, 0, []bitops.PID{1}, hashring.Fixed(1))
	if resp, err := NewClient(fixed[1].Addr()).Do(&msg.Request{Kind: msg.KindTable}, false); err != nil {
		t.Fatal(err)
	} else if table, err := parseTable(resp.Data); err != nil || table.defaultHash {
		t.Fatalf("Fixed-hashed peer's table = %+v, %v; want defaultHash false", table, err)
	}
}
