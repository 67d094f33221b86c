package netnode

// Tests for the locate-then-fetch data plane: locate walks, local-only
// fetches, route-hint reuse, traced fault paths,
// and the full get-walk fallback chain exercised through both the relay and
// the locate lookup.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/transport"
)

// markDeadEverywhere clears victim's liveness bit on every peer through
// the failure detector — routing routes around it immediately, with no
// register-dead recovery replication muddying replica placement.
func markDeadEverywhere(peers map[bitops.PID]*Peer, victim bitops.PID) {
	for _, p := range peers {
		th := p.Transport().Config().FailThreshold
		for i := 0; i < th; i++ {
			p.Detector().Fail(uint32(victim))
		}
	}
}

// sumRelayed totals the relayed payload bytes across the fabric.
func sumRelayed(peers map[bitops.PID]*Peer) uint64 {
	var n uint64
	for _, p := range peers {
		n += p.Stats().RelayedBytes.Load()
	}
	return n
}

// sumRequests totals requests handled across the fabric.
func sumRequests(peers map[bitops.PID]*Peer) uint64 {
	var n uint64
	for _, p := range peers {
		n += p.Stats().Requests.Load()
	}
	return n
}

func TestLocateResolvesHolder(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[9].Addr()).Insert("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Locate from P(8): the same P(8) → P(0) → P(4) walk a get takes, but
	// the answer is the holder's identity, not the payload.
	res, err := NewClient(peers[8].Addr()).Locate("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.PID != 4 || res.Addr != peers[4].Addr() || res.Hops != 2 {
		t.Fatalf("locate = %+v, want holder P(4) at %s after 2 hops", res, peers[4].Addr())
	}
	if res.Version == 0 {
		t.Fatal("locate lost the copy version")
	}
	if got := peers[4].Stats().Located.Load(); got != 1 {
		t.Fatalf("holder Located = %d, want 1", got)
	}
	// A locate must not count a store access — replication heuristics see
	// one access per get, however the get was served.
	if hits := peers[4].store.Hits("f"); hits != 0 {
		t.Fatalf("locate counted %d store accesses", hits)
	}

	tr, err := NewClient(peers[8].Addr()).LocateTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Path) != 3 || tr.Path[2].Action != msg.HopLocate || tr.Path[2].PID != 4 {
		t.Fatalf("traced locate path = %+v", tr.Path)
	}
}

func TestLocateClientWarmHintSingleRPC(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[9].Addr()).Insert("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	cl := NewLocateClient(peers[8].Addr())

	// Cold: one locate walk, then the direct fetch.
	res, err := cl.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 4 || !bytes.Equal(res.Data, []byte("hello")) {
		t.Fatalf("cold locate get = %+v", res)
	}
	if cl.LocateStats().Locates.Load() != 1 {
		t.Fatalf("locates = %d, want 1", cl.LocateStats().Locates.Load())
	}

	// Warm: the hint sends the fetch straight to the holder — exactly one
	// fabric request total, zero payload bytes relayed.
	req0, relay0 := sumRequests(peers), sumRelayed(peers)
	res, err = cl.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 4 || !bytes.Equal(res.Data, []byte("hello")) {
		t.Fatalf("warm locate get = %+v", res)
	}
	if d := sumRequests(peers) - req0; d != 1 {
		t.Fatalf("warm-hint get cost %d fabric requests, want 1", d)
	}
	if d := sumRelayed(peers) - relay0; d != 0 {
		t.Fatalf("warm-hint get relayed %d payload bytes, want 0", d)
	}
	if cl.LocateStats().HintHits.Load() != 1 {
		t.Fatalf("hint hits = %d, want 1", cl.LocateStats().HintHits.Load())
	}
	if cl.LocateStats().Locates.Load() != 1 {
		t.Fatalf("warm get re-located: locates = %d", cl.LocateStats().Locates.Load())
	}
	if peers[4].Stats().DirectServed.Load() != 2 {
		t.Fatalf("holder DirectServed = %d, want 2", peers[4].Stats().DirectServed.Load())
	}
}

// TestRetiredLocalOnlyFlagIsIgnored: a get carrying the retired
// FlagLocalOnly — what an older build's locate client sends — is a plain
// get. At a non-holder it is forwarded and served, never refused; at a
// holder it counts one serve and no chunk-plane serve.
func TestRetiredLocalOnlyFlagIsIgnored(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[9].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	get := func(at bitops.PID) *msg.Response {
		t.Helper()
		resp, err := NewClient(peers[at].Addr()).Do(&msg.Request{Kind: msg.KindGet, Flags: msg.FlagLocalOnly, Name: "f"}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.ServedBy != 4 || !bytes.Equal(resp.Data, []byte("x")) {
			t.Fatalf("flagged get at P(%d) = %+v, want the payload from P(4)", at, resp)
		}
		return resp
	}

	fwd0, served0 := peers[8].Stats().Forwards.Load(), peers[4].Stats().Served.Load()
	if resp := get(8); resp.Hops == 0 {
		t.Fatalf("flagged get at a non-holder served in 0 hops: %+v", resp)
	}
	if d := peers[8].Stats().Forwards.Load() - fwd0; d != 1 {
		t.Fatalf("non-holder forwarded the flagged get %d times, want 1", d)
	}
	if peers[8].Stats().DirectMisses.Load() != 0 {
		t.Fatalf("non-holder counted %d direct misses, want 0", peers[8].Stats().DirectMisses.Load())
	}
	if d := peers[4].Stats().Served.Load() - served0; d != 1 {
		t.Fatalf("holder served %d, want 1", d)
	}

	served0 = peers[4].Stats().Served.Load()
	if resp := get(4); resp.Hops != 0 {
		t.Fatalf("flagged get at the holder took %d hops", resp.Hops)
	}
	if d := peers[4].Stats().Served.Load() - served0; d != 1 {
		t.Fatalf("holder served %d, want 1", d)
	}
	if n := peers[4].Stats().DirectServed.Load(); n != 0 {
		t.Fatalf("holder DirectServed = %d, want 0: a whole-frame get is not a chunk serve", n)
	}
}

// TestLocateClientTracedGetIsARelay: a locate client's traced get is the
// traced relay — one get and no locate-set on the wire, the relay walk
// P(8) → P(0) → P(4) as its path, and no relay fallback counted.
func TestLocateClientTracedGetIsARelay(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[9].Addr()).Insert("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	tr := transport.New(transport.Config{}, nil)
	t.Cleanup(func() { tr.Close() })
	cl := NewLocateClientWith(peers[8].Addr(), tr, LocateOptions{})
	res, err := cl.GetTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 4 || !bytes.Equal(res.Data, []byte("hello")) {
		t.Fatalf("traced get = %+v, want the payload from P(4)", res)
	}
	if ls, g := tr.Latency(msg.KindLocateSet).Count(), tr.Latency(msg.KindGet).Count(); ls != 0 || g != 1 {
		t.Fatalf("locate-set/get RPCs = %d/%d, want 0/1", ls, g)
	}
	want := []msg.Hop{{PID: 8, Action: msg.HopForward}, {PID: 0, Action: msg.HopForward}, {PID: 4, Action: msg.HopServe}}
	if len(res.Path) != len(want) {
		t.Fatalf("traced get path = %+v, want %d hops", res.Path, len(want))
	}
	for i, h := range res.Path {
		if h.PID != want[i].PID || h.Action != want[i].Action {
			t.Fatalf("hop %d = %+v, want %v at P(%d); path %+v", i, h, want[i].Action, want[i].PID, res.Path)
		}
	}
	if n := cl.LocateStats().Relays.Load(); n != 0 {
		t.Fatalf("relays = %d, want 0: a traced get is not a fallback", n)
	}
}

// TestGetRelaysUndecodableLocate: a locate-set answer whose holder set
// does not decode sends a locate client's get to the relay rung — never
// back to the caller as an error.
func TestGetRelaysUndecodableLocate(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", func(req *msg.Request) *msg.Response {
		switch req.Kind {
		case msg.KindLocateSet:
			return &msg.Response{OK: true, ServedBy: 7, Data: []byte{0xff}}
		case msg.KindGet:
			return &msg.Response{OK: true, ServedBy: 7, Data: []byte("hello")}
		}
		return &msg.Response{Err: "unexpected " + req.Kind.String()}
	}, transport.ServeLoopOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tr := transport.New(transport.Config{}, nil)
	t.Cleanup(func() { tr.Close() })
	cl := NewLocateClientWith(srv.Addr(), tr, LocateOptions{})
	res, err := cl.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 7 || !bytes.Equal(res.Data, []byte("hello")) {
		t.Fatalf("get = %+v, want the relayed payload from P(7)", res)
	}
	if got := cl.LocateStats().Relays.Load(); got != 1 {
		t.Fatalf("relays = %d, want 1", got)
	}
}

func TestHintInvalidatedByWrites(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	cl := NewLocateClient(peers[8].Addr())
	if err := cl.Insert("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("f"); err != nil { // warms the hint
		t.Fatal(err)
	}
	if _, err := cl.Update("f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// The update entered at the hinted holder and its ack refreshed the
	// hint in place — the read-after-write get serves directly off it, no
	// re-locate, and still must see the acknowledged write.
	if cl.LocateStats().HintRefreshes.Load() != 1 {
		t.Fatalf("HintRefreshes = %d, want 1", cl.LocateStats().HintRefreshes.Load())
	}
	locates0 := cl.LocateStats().Locates.Load()
	res, err := cl.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, []byte("v2")) {
		t.Fatalf("post-update get = %q, want v2", res.Data)
	}
	if cl.LocateStats().Locates.Load() != locates0 {
		t.Fatal("post-update get re-located despite the refreshed hint")
	}
	// Delete purges too: the re-located get faults.
	if _, err := cl.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("f"); !errors.Is(err, ErrFault) {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestTracedLookupFaultReturnsPath(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	// No such file anywhere: the traced get faults, and the error result
	// still carries the route walked, closed by a terminal fault hop.
	res, err := NewClient(peers[8].Addr()).GetTraced("missing")
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want fault", err)
	}
	if len(res.Path) == 0 {
		t.Fatal("traced fault returned no path")
	}
	last := res.Path[len(res.Path)-1]
	if last.Action != msg.HopFault {
		t.Fatalf("terminal hop = %+v, want fault", last)
	}
	if res.Path[0].PID != 8 {
		t.Fatalf("path starts at P(%d), want the entry peer P(8)", res.Path[0].PID)
	}
	// Locate faults identically.
	lres, lerr := NewClient(peers[8].Addr()).LocateTraced("missing")
	if lerr == nil {
		t.Fatal("locate of a missing file succeeded")
	}
	if len(lres.Path) == 0 || lres.Path[len(lres.Path)-1].Action != msg.HopFault {
		t.Fatalf("traced locate fault path = %+v", lres.Path)
	}
}

// TestLookupFallbackChain drives the full ptree.View.Next chain — live-ancestor
// walk exhausted (every ancestor dead), §3 FINDLIVENODE fallback to a
// primary without the copy, §4 migration into the sibling subtree — and
// asserts the relay and locate lookups walk the identical route.
func TestLookupFallbackChain(t *testing.T) {
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
		t.Fatalf("holders = %v, want one per subtree", holders)
	}
	v := peers[holders[0]].view(4)
	sid := v.SubtreeID(holders[0])
	survivor := holders[1]

	// The origin: a peer in holders[0]'s subtree with a real ancestor
	// chain to kill.
	var origin bitops.PID
	var chain []bitops.PID
	for pid := range peers {
		if v.SubtreeID(pid) != sid || pid == holders[0] {
			continue
		}
		chain = chain[:0]
		for p := pid; ; {
			anc, ok := v.AliveAncestor(p)
			if !ok {
				break
			}
			chain = append(chain, anc)
			p = anc
		}
		if len(chain) >= 2 {
			origin = pid
			break
		}
	}
	if len(chain) < 2 {
		t.Fatalf("no origin with an ancestor chain found (subtree %d)", sid)
	}

	// Stage the fault: the origin's subtree loses its copy, and every
	// ancestor on the origin's walk dies.
	peers[holders[0]].store.Delete("f")
	for _, victim := range chain {
		markDeadEverywhere(peers, victim)
	}
	v2 := peers[origin].view(4)
	if _, ok := v2.AliveAncestor(origin); ok {
		t.Fatal("setup: origin still has a live ancestor")
	}
	prim, ok := v2.PrimaryOf(origin)
	if !ok || prim == origin {
		t.Fatalf("setup: no distinct live primary (prim=%v ok=%v)", prim, ok)
	}

	assertChain := func(path []msg.Hop, terminal msg.HopAction) []uint32 {
		t.Helper()
		var actions []msg.HopAction
		var pids []uint32
		for _, h := range path {
			actions = append(actions, h.Action)
			pids = append(pids, h.PID)
		}
		if len(path) < 3 {
			t.Fatalf("path too short: %v", actions)
		}
		if path[0].PID != uint32(origin) || path[0].Action != msg.HopFallback {
			t.Fatalf("first hop = %+v, want FINDLIVENODE fallback out of P(%d); path %v", path[0], origin, actions)
		}
		if path[1].PID != uint32(prim) || path[1].Action != msg.HopMigrate {
			t.Fatalf("second hop = %+v, want migration at primary P(%d); path %v", path[1], prim, actions)
		}
		last := path[len(path)-1]
		if last.Action != terminal || last.PID != uint32(survivor) {
			t.Fatalf("terminal hop = %+v, want %v at P(%d)", last, terminal, survivor)
		}
		return pids
	}

	res, err := NewClient(peers[origin].Addr()).GetTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != uint32(survivor) || !bytes.Equal(res.Data, []byte("x")) {
		t.Fatalf("relay get = %+v, want serve from P(%d)", res, survivor)
	}
	relayRoute := assertChain(res.Path, msg.HopServe)

	lres, err := NewClient(peers[origin].Addr()).LocateTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if lres.PID != uint32(survivor) || lres.Addr != peers[survivor].Addr() {
		t.Fatalf("locate = %+v, want holder P(%d)", lres, survivor)
	}
	locateRoute := assertChain(lres.Path, msg.HopLocate)

	if fmt.Sprint(relayRoute) != fmt.Sprint(locateRoute) {
		t.Fatalf("locate route %v diverged from relay route %v", locateRoute, relayRoute)
	}

	// Second stage: the whole subtree dies except the origin — no
	// fallback primary left, so the lookup migrates straight out, through
	// both lookups again.
	for pid := range peers {
		if v.SubtreeID(pid) == sid && pid != origin {
			markDeadEverywhere(peers, pid)
		}
	}
	res, err = NewClient(peers[origin].Addr()).GetTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != uint32(survivor) {
		t.Fatalf("post-collapse relay get served by P(%d), want P(%d)", res.ServedBy, survivor)
	}
	if res.Path[0].Action != msg.HopMigrate {
		t.Fatalf("post-collapse first hop = %+v, want direct migration", res.Path[0])
	}
	lres, err = NewClient(peers[origin].Addr()).LocateTraced("f")
	if err != nil {
		t.Fatal(err)
	}
	if lres.PID != uint32(survivor) || lres.Path[0].Action != msg.HopMigrate {
		t.Fatalf("post-collapse locate = %+v path %+v", lres, lres.Path)
	}
}

// TestLocateClientConcurrentConsistency hammers one shared locate client
// with concurrent reads and writes — hint fills, purges and direct fetches
// race under -race — and then asserts the final acknowledged write is what
// every path serves.
func TestLocateClientConcurrentConsistency(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(8), hashring.Fixed(4))
	cl := NewLocateClient(peers[3].Addr())
	if err := cl.Insert("f", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 2, 4, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := cl.Update("f", []byte(fmt.Sprintf("w%d-%d", w, i)))
				// A concurrently superseded update applies nowhere and
				// reports "found no copy" — it lost the Lamport race, the
				// file is fine.
				if err != nil && !strings.Contains(err.Error(), "found no copy") {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for i := 0; i < rounds*2; i++ {
				res, err := cl.Get("f")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", res.Version, lastVersion)
					return
				}
				lastVersion = res.Version
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Quiesced: one more write, then every read path must serve it.
	if _, err := cl.Update("f", []byte("final")); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Get("f") // re-locates (hint purged by the update)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, []byte("final")) {
		t.Fatalf("locate get after final update = %q", res.Data)
	}
	res, err = cl.Get("f") // warm hint
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, []byte("final")) {
		t.Fatalf("warm-hint get after final update = %q", res.Data)
	}
}

// TestLocateAnswerDecodedInPlace: a locate-set answer decoded straight
// into a hint set (placement.hintSet) carries exactly what DecodeHolders
// reads from it, with or without a snapshot and whether or not the
// snapshot's addresses match the answer's; an address that matches is the
// snapshot's own string, one that does not is a copy that outlives the
// answer's buffer.
func TestLocateAnswerDecodedInPlace(t *testing.T) {
	answer, err := msg.AppendHolders(nil, []msg.Holder{
		{PID: 3, Addr: "127.0.0.1:7103", Version: 9},
		{PID: 5, Addr: "127.0.0.1:7555", Version: 0}, // moved since the snapshot
		{PID: 6, Addr: "127.0.0.1:7106", Version: 4}, // joined since the snapshot
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := &placement{addrs: map[bitops.PID]string{3: "127.0.0.1:7103", 5: "127.0.0.1:7105"}}
	want, err := msg.DecodeHolders(answer)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*placement{nil, snap} {
		buf := bytes.Clone(answer)
		set, err := pl.hintSet(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xDB // the answer's buffer goes back to its pool
		}
		if len(set) != len(want) {
			t.Fatalf("snapshot %v: %d hints, want %d", pl != nil, len(set), len(want))
		}
		for i, h := range want {
			if set[i].PID != h.PID || set[i].Addr != h.Addr || set[i].Version != h.Version {
				t.Errorf("snapshot %v: hint %d = %+v, want %+v", pl != nil, i, set[i], h)
			}
		}
		if pl != nil && unsafe.StringData(set[0].Addr) != unsafe.StringData(snap.addrs[3]) {
			t.Error("an address the snapshot holds was copied, not shared")
		}
	}
	for _, bad := range [][]byte{nil, answer[:len(answer)-1], append(bytes.Clone(answer), 0)} {
		if _, err := snap.hintSet(bad); err == nil {
			t.Errorf("%d-byte answer decoded; DecodeHolders refuses it", len(bad))
		}
	}
}
