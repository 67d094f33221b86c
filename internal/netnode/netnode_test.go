package netnode

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
)

// startSystem boots peers for the given PIDs in an m-bit space with ψ
// pinned at target, wires the address tables and registers cleanup.
func startSystem(t testing.TB, m, b int, pids []bitops.PID, hasher hashring.Hasher) map[bitops.PID]*Peer {
	t.Helper()
	return startSystemWith(t, pids, Config{M: m, B: b, Hasher: hasher})
}

// startSystemWith is startSystem with every knob the caller's: each peer
// gets cfg with its own PID.
func startSystemWith(t testing.TB, pids []bitops.PID, cfg Config) map[bitops.PID]*Peer {
	t.Helper()
	peers := make(map[bitops.PID]*Peer, len(pids))
	addrs := make(map[bitops.PID]string, len(pids))
	for _, pid := range pids {
		cfg.PID = pid
		p, err := Listen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[pid] = p
		addrs[pid] = p.Addr()
	}
	for _, p := range peers {
		p.SetAddrs(addrs)
	}
	return peers
}

// inlinePlacement is the placement a peer sends for a body that fits one
// frame: a direct KindNotify, the body inline after the facts.
func inlinePlacement(t testing.TB, name string, body []byte, version uint64) *msg.Request {
	t.Helper()
	facts, err := msg.AppendNotifyReq(nil, &msg.NotifyReq{TotalSize: uint64(len(body)), Body: body})
	if err != nil {
		t.Fatal(err)
	}
	return &msg.Request{Kind: msg.KindNotify, Name: name, Version: version, Data: facts, Tail: body}
}

func allPIDs(n int) []bitops.PID {
	out := make([]bitops.PID, n)
	for i := range out {
		out[i] = bitops.PID(i)
	}
	return out
}

func TestInsertGetOverTCP(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewClient(peers[9].Addr())
	if err := cl.Insert("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// The copy must be at P(4).
	n4, _ := peers[4], 0
	if !n4.store.Has("f") {
		t.Fatal("target peer does not hold the file")
	}
	// Get from P(8): the paper path P(8) -> P(0) -> P(4), two hops.
	res, err := NewClient(peers[8].Addr()).Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 4 || res.Hops != 2 || !bytes.Equal(res.Data, []byte("hello")) {
		t.Fatalf("get = %+v", res)
	}
	// Get at the target itself: zero hops.
	res, err = NewClient(peers[4].Addr()).Get("f")
	if err != nil || res.Hops != 0 {
		t.Fatalf("get at target = %+v, %v", res, err)
	}
}

func TestGetFaultOverTCP(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	_, err := NewClient(peers[0].Addr()).Get("ghost")
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplicaShortensPath(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewClient(peers[3].Addr())
	if err := cl.Insert("f", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Hand-place a replica at P(0), which is on P(8)'s path.
	if err := NewClient(peers[0].Addr()).Store("f", []byte("v"), 1, true); err != nil {
		t.Fatal(err)
	}
	res, err := NewClient(peers[8].Addr()).Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 0 || res.Hops != 1 {
		t.Fatalf("get = %+v, want served by P(0) in 1 hop", res)
	}
}

func TestUpdatePropagatesOverTCP(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[2].Addr()).Insert("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Replicas at P(5) (root's first child) and P(7) (child of P(5)).
	NewClient(peers[5].Addr()).Store("f", []byte("v1"), 1, true)
	NewClient(peers[7].Addr()).Store("f", []byte("v1"), 1, true)
	updated, err := NewClient(peers[11].Addr()).Update("f", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if updated != 3 {
		t.Fatalf("updated %d copies, want 3", updated)
	}
	for _, pid := range []bitops.PID{4, 5, 7} {
		f, ok := peers[pid].store.Peek("f")
		if !ok || !bytes.Equal(f.Data, []byte("v2")) {
			t.Fatalf("P(%d) copy stale: %+v", pid, f)
		}
	}
	// A non-holder never received a copy.
	if peers[9].store.Has("f") {
		t.Fatal("update created a copy on a non-holder")
	}
}

func TestDeleteOverTCP(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewClient(peers[9].Addr())
	if err := cl.Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	NewClient(peers[5].Addr()).Store("f", []byte("x"), 1, true)
	NewClient(peers[7].Addr()).Store("f", []byte("x"), 1, true)
	removed, err := cl.Delete("f")
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed %d of 3", removed)
	}
	for pid, p := range peers {
		if p.HasFile("f") {
			t.Fatalf("copy survived at P(%d)", pid)
		}
	}
	if _, err := cl.Get("f"); !errors.Is(err, ErrFault) {
		t.Fatalf("get after delete: %v", err)
	}
	if _, err := cl.Delete("f"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestDeleteOverTCPFaultTolerant(t *testing.T) {
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.Fixed(4))
	cl := NewClient(peers[2].Addr())
	if err := cl.Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	removed, err := cl.Delete("f")
	if err != nil || removed != 2 {
		t.Fatalf("removed %d, %v; want both subtree copies", removed, err)
	}
}

func TestSubtreeMigrationOverTCP(t *testing.T) {
	// b=1: two subtrees. Remove the copy from one subtree; a get from
	// that subtree must migrate and still succeed.
	peers := startSystem(t, 4, 1, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[1].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var holders []bitops.PID
	for pid, p := range peers {
		if p.store.Has("f") {
			holders = append(holders, pid)
		}
	}
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want 2 (one per subtree)", holders)
	}
	peers[holders[0]].store.Delete("f")
	// Any origin in the now-empty subtree must still resolve.
	v := peers[holders[0]].view(4)
	var origin bitops.PID
	for pid := range peers {
		if v.SubtreeID(pid) == v.SubtreeID(holders[0]) && pid != holders[0] {
			origin = pid
			break
		}
	}
	res, err := NewClient(peers[origin].Addr()).Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != uint32(holders[1]) {
		t.Fatalf("served by P(%d), want the other subtree's holder P(%d)", res.ServedBy, holders[1])
	}
}

func TestPartialSystemWithDeadSlots(t *testing.T) {
	// Only 14 of 16 slots are populated (P(4), P(5) missing): the §3
	// example over real sockets. ψ targets the dead P(4); the insert
	// must land on P(6) and gets must fall back to it.
	var pids []bitops.PID
	for i := 0; i < 16; i++ {
		if i == 4 || i == 5 {
			continue
		}
		pids = append(pids, bitops.PID(i))
	}
	peers := startSystem(t, 4, 0, pids, hashring.Fixed(4))
	if err := NewClient(peers[0].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !peers[6].store.Has("f") {
		t.Fatal("insert with dead target did not land on P(6)")
	}
	for _, origin := range []bitops.PID{0, 7, 8, 15} {
		res, err := NewClient(peers[origin].Addr()).Get("f")
		if err != nil {
			t.Fatalf("get from P(%d): %v", origin, err)
		}
		if res.ServedBy != 6 {
			t.Fatalf("get from P(%d) served by P(%d), want P(6)", origin, res.ServedBy)
		}
	}
}

func TestStatAndStats(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	cl := NewClient(peers[3].Addr())
	if err := cl.Insert("s", []byte("x")); err != nil {
		t.Fatal(err)
	}
	out, err := cl.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pid=3") || !strings.Contains(out, "live=8") {
		t.Fatalf("stat = %q", out)
	}
	if peers[3].Stats().Requests.Load() < 2 {
		t.Fatal("request counter not advancing")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	resp, err := NewClient(peers[0].Addr()).Do(&msg.Request{Kind: msg.Kind(42), Name: "x"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "unknown kind") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), nil)
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("obj-%d", i)
		if err := NewClient(peers[bitops.PID(i%16)].Addr()).Insert(names[i], []byte(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			for i := 0; i < 25; i++ {
				name := names[(w*25+i)%len(names)]
				res, err := NewClient(peers[bitops.PID((w+i)%16)].Addr()).Get(name)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(res.Data, []byte(name)) {
					errc <- fmt.Errorf("wrong data for %s", name)
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
