package netnode

// Wire-level end-to-end scenario: a B=1 fault-tolerant system over real
// sockets goes through content, load, maintenance, join, graceful leave
// and an abrupt failure with recovery, and every file keeps serving.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/transport"
)

func TestEndToEndWireScenario(t *testing.T) {
	const m = 5 // 32 slots
	var pids []bitops.PID
	for i := 0; i < 28; i++ { // 4 slots free for the join phase
		pids = append(pids, bitops.PID(i))
	}
	peers := startSystem(t, m, 1, pids, hashring.FNV{})

	anyAddr := func() string {
		for _, p := range peers {
			return p.Addr()
		}
		t.Fatal("no peers")
		return ""
	}

	// Phase 1: content through arbitrary peers, 2 copies each (B=1).
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("wire/%02d", i)
		if err := NewClient(peers[pids[i%len(pids)]].Addr()).Insert(names[i], []byte(names[i])); err != nil {
			t.Fatalf("insert %s: %v", names[i], err)
		}
		holders := 0
		for _, p := range peers {
			if p.HasFile(names[i]) {
				holders++
			}
		}
		if holders != 2 {
			t.Fatalf("%s has %d copies, want 2", names[i], holders)
		}
	}

	// Phase 2: load one file and let its holder's maintenance replicate.
	hot := names[3]
	var hotHolder bitops.PID
	for pid, p := range peers {
		if p.HasFile(hot) {
			hotHolder = pid
			break
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := NewClient(peers[hotHolder].Addr()).Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := peers[hotHolder].MaintainOnce(10, 0); !ok {
		t.Fatal("maintenance did not replicate the hot file")
	}

	// Phase 3: a node joins and inherits whatever now belongs to it.
	joiner, err := Listen(Config{PID: 30, M: m, B: 1, Hasher: hashring.FNV{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.Join(anyAddr()); err != nil {
		t.Fatal(err)
	}
	peers[30] = joiner

	// Phase 4: a graceful leave hands copies over; an abrupt failure is
	// recovered from the sibling subtree.
	leaver := pids[5]
	if err := peers[leaver].Leave(); err != nil {
		t.Fatal(err)
	}
	peers[leaver].Close()
	delete(peers, leaver)

	victim := pids[11]
	peers[victim].Close()
	delete(peers, victim)
	for _, p := range peers {
		p.ReportFailure(victim)
		break
	}

	// Endgame: every file resolves from every surviving peer's viewpoint
	// with correct contents.
	for _, name := range names {
		for pid := range peers {
			res, err := NewClient(peers[pid].Addr()).Get(name)
			if err != nil {
				t.Fatalf("get %s via P(%d): %v", name, pid, err)
			}
			if !bytes.Equal(res.Data, []byte(name)) {
				t.Fatalf("get %s via P(%d): wrong data %q", name, pid, res.Data)
			}
		}
	}
}

// --- networked fault-path scenario matrix ---------------------------------
//
// Every scenario runs a real system whose peers share one fault-injection
// table (transport.Faults) and tight RPC deadlines, so dead, slow and
// flapping peers are scripted deterministically — no sleep-based killing,
// and timeouts are driven by short configured deadlines, not wall-clock
// guesswork.

// faultSystem is a wire system whose peers share a fault table and a tight
// transport configuration.
type faultSystem struct {
	peers  map[bitops.PID]*Peer
	faults *transport.Faults
	tcfg   transport.Config
}

func (s *faultSystem) addr(pid bitops.PID) string { return s.peers[pid].Addr() }

func (s *faultSystem) closeAll() {
	for _, p := range s.peers {
		p.Close()
	}
}

// startFaultSystem boots peers 0..n-1 sharing one fault table, with
// deadlines short enough that a blown one is cheap and a bound of 2× is
// still generous.
func startFaultSystem(t *testing.T, m, b, n int, hasher hashring.Hasher, tcfg transport.Config) *faultSystem {
	t.Helper()
	faults := transport.NewFaults()
	sys := &faultSystem{peers: map[bitops.PID]*Peer{}, faults: faults, tcfg: tcfg}
	addrs := map[bitops.PID]string{}
	for i := 0; i < n; i++ {
		pid := bitops.PID(i)
		p, err := Listen(Config{
			PID: pid, M: m, B: b, Hasher: hasher,
			Transport: tcfg, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		sys.peers[pid] = p
		addrs[pid] = p.Addr()
	}
	for _, p := range sys.peers {
		p.SetAddrs(addrs)
	}
	return sys
}

// tightTransport is the scenario-default transport: no idempotent retries
// (so attempt counts are exact), a one-failure detector threshold (so a
// single blown deadline triggers the §5 fallback), and a short RPC
// deadline that bounds every injected hang.
func tightTransport() transport.Config {
	return transport.Config{
		DialTimeout:   500 * time.Millisecond,
		RPCTimeout:    150 * time.Millisecond,
		Retries:       -1,
		FailThreshold: 1,
		Seed:          1,
	}
}

func TestNetworkedFaultScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T)
	}{
		{name: "dead root: a silently crashed replica holder", run: func(t *testing.T) {
			// B=1: two copies, one per subtree. The holder in the origin's
			// subtree crashes without any registration; the get must still
			// succeed through the §3/§4 fallback, inside the deadline
			// budget, and the crash must show up in the status word.
			sys := startFaultSystem(t, 4, 1, 16, hashring.Fixed(4), tightTransport())
			if err := NewClient(sys.addr(2)).Insert("f", []byte("v")); err != nil {
				t.Fatal(err)
			}
			var holders []bitops.PID
			for pid, p := range sys.peers {
				if p.HasFile("f") {
					holders = append(holders, pid)
				}
			}
			if len(holders) != 2 {
				t.Fatalf("holders = %v, want one per subtree", holders)
			}
			victim := holders[0]
			sys.peers[victim].Close()
			delete(sys.peers, victim)

			start := time.Now()
			for pid := range sys.peers {
				res, err := NewClient(sys.addr(pid)).Get("f")
				if err != nil {
					t.Fatalf("get via P(%d) with dead holder P(%d): %v", pid, victim, err)
				}
				if !bytes.Equal(res.Data, []byte("v")) {
					t.Fatalf("get via P(%d): wrong data %q", pid, res.Data)
				}
			}
			// A crashed peer answers dials with a refusal, so the whole
			// sweep stays far inside one deadline per get.
			if elapsed := time.Since(start); elapsed > time.Duration(len(sys.peers))*2*sys.tcfg.RPCTimeout {
				t.Fatalf("fallback gets took %v", elapsed)
			}
			detected := false
			for _, p := range sys.peers {
				if !p.IsLive(victim) {
					detected = true
					break
				}
			}
			if !detected {
				t.Fatalf("no surviving peer's failure detector cleared P(%d)'s liveness bit", victim)
			}
		}},

		{name: "slow peer: a forwarding hop hangs until the deadline", run: func(t *testing.T) {
			// P(8)'s get path is P(8) → P(0) → P(4). P(0) hangs every get
			// for the full RPC deadline; the blown deadline must flip
			// P(0)'s bit and the same get must be re-routed and succeed
			// within 2× the configured deadline.
			sys := startFaultSystem(t, 4, 0, 16, hashring.Fixed(4), tightTransport())
			if err := NewClient(sys.addr(3)).Insert("f", []byte("v")); err != nil {
				t.Fatal(err)
			}
			sys.faults.Add(transport.Rule{Addr: sys.addr(0), Hang: true})
			start := time.Now()
			res, err := NewClient(sys.addr(8)).Get("f")
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("get past a hung hop: %v", err)
			}
			if res.ServedBy != 4 || !bytes.Equal(res.Data, []byte("v")) {
				t.Fatalf("get = %+v", res)
			}
			if elapsed > 2*sys.tcfg.RPCTimeout {
				t.Fatalf("get took %v, want < 2× the %v RPC deadline", elapsed, sys.tcfg.RPCTimeout)
			}
			if sys.peers[8].IsLive(0) {
				t.Fatal("blown deadline did not clear the hung peer's liveness bit")
			}
			if sys.peers[8].Transport().Counters().Timeouts.Value() == 0 {
				t.Fatal("timeout not counted by the transport")
			}
			if sys.peers[8].Stats().PeersDown.Load() == 0 {
				t.Fatal("peers-down counter not advanced")
			}
		}},

		{name: "dead child during update fan-out: branch re-routed, not dropped", run: func(t *testing.T) {
			// Copies on the chain P(4) → P(5) → P(7). P(5) is unreachable
			// for every kind: the update must re-route P(5)'s branch
			// through its expanded children list so P(7) is rewritten
			// instead of silently keeping the stale copy.
			sys := startFaultSystem(t, 4, 0, 16, hashring.Fixed(4), tightTransport())
			if err := NewClient(sys.addr(2)).Insert("f", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := NewClient(sys.addr(5)).Store("f", []byte("v1"), 1, true); err != nil {
				t.Fatal(err)
			}
			if err := NewClient(sys.addr(7)).Store("f", []byte("v1"), 1, true); err != nil {
				t.Fatal(err)
			}
			sys.faults.Add(transport.Rule{Addr: sys.addr(5), Drop: true})
			updated, err := NewClient(sys.addr(11)).Update("f", []byte("v2"))
			if err != nil {
				t.Fatal(err)
			}
			if updated != 2 {
				t.Fatalf("updated %d copies, want 2 (P(4) and re-routed P(7))", updated)
			}
			for _, pid := range []bitops.PID{4, 7} {
				f, ok := sys.peers[pid].store.Peek("f")
				if !ok || !bytes.Equal(f.Data, []byte("v2")) {
					t.Fatalf("P(%d) copy stale after fan-out around dead P(5): %+v", pid, f)
				}
			}
			// The unreachable peer's copy is the only stale one.
			if f, _ := sys.peers[5].store.Peek("f"); !bytes.Equal(f.Data, []byte("v1")) {
				t.Fatalf("P(5) should still hold v1, got %+v", f)
			}
		}},

		{name: "flapping peer: down after N failures, restored on recovery", run: func(t *testing.T) {
			// P(6) is unreachable for exactly threshold probes, then
			// answers again: the detector must declare it down once, and
			// the first successful exchange must restore its bit.
			tcfg := tightTransport()
			tcfg.FailThreshold = 2
			sys := startFaultSystem(t, 4, 0, 16, hashring.Fixed(4), tcfg)
			sys.faults.Add(transport.Rule{Addr: sys.addr(6), Drop: true, Times: 2})
			obs := sys.peers[2]
			if err := obs.Probe(6); err == nil {
				t.Fatal("first probe of a dropped peer succeeded")
			}
			if !obs.IsLive(6) {
				t.Fatal("one failure below threshold already cleared the bit")
			}
			if err := obs.Probe(6); err == nil {
				t.Fatal("second probe of a dropped peer succeeded")
			}
			if obs.IsLive(6) || !obs.Detector().Down(6) {
				t.Fatal("threshold failures did not clear the liveness bit")
			}
			// The fault budget is exhausted: the peer has recovered.
			if err := obs.Probe(6); err != nil {
				t.Fatalf("probe after recovery: %v", err)
			}
			if !obs.IsLive(6) || obs.Detector().Down(6) {
				t.Fatal("successful exchange did not restore the liveness bit")
			}
			if obs.Stats().PeersUp.Load() != 1 || obs.Stats().PeersDown.Load() != 1 {
				t.Fatalf("flip counters = down %d / up %d, want 1/1",
					obs.Stats().PeersDown.Load(), obs.Stats().PeersUp.Load())
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, sc.run)
	}
}

// TestKillPeerMidRunRejoinNoLeaks is the acceptance scenario: a replica
// holder is killed mid-run with no registration; (a) a get on the
// replicated file still succeeds via fallback within 2× the RPC deadline,
// (b) the failure detector clears the dead peer's liveness bit and a
// rejoin restores it, and (c) the whole exercise leaks no goroutines.
func TestKillPeerMidRunRejoinNoLeaks(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	func() {
		const m, b = 4, 1
		tcfg := tightTransport()
		faults := transport.NewFaults()
		peers := map[bitops.PID]*Peer{}
		addrs := map[bitops.PID]string{}
		for i := 0; i < 16; i++ {
			pid := bitops.PID(i)
			p, err := Listen(Config{PID: pid, M: m, B: b, Hasher: hashring.Fixed(4), Transport: tcfg, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			peers[pid] = p
			addrs[pid] = p.Addr()
		}
		defer func() {
			for _, p := range peers {
				p.Close()
			}
		}()
		for _, p := range peers {
			p.SetAddrs(addrs)
		}
		if err := NewClient(peers[1].Addr()).Insert("f", []byte("v")); err != nil {
			t.Fatal(err)
		}
		var holders []bitops.PID
		for pid, p := range peers {
			if p.HasFile("f") {
				holders = append(holders, pid)
			}
		}
		if len(holders) != 2 {
			t.Fatalf("holders = %v", holders)
		}

		// Kill one holder mid-run: no Leave, no ReportFailure.
		victim := holders[0]
		victimPeer := peers[victim]
		delete(peers, victim)
		victimPeer.Close()

		// (a) A get from the dead holder's own subtree succeeds via the
		// fallback within the deadline budget.
		v := peers[holders[1]].view(4)
		var origin bitops.PID
		for pid := range peers {
			if v.SubtreeID(pid) == v.SubtreeID(victim) {
				origin = pid
				break
			}
		}
		start := time.Now()
		res, err := NewClient(peers[origin].Addr()).Get("f")
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("get after killing P(%d): %v", victim, err)
		}
		if !bytes.Equal(res.Data, []byte("v")) {
			t.Fatalf("get = %+v", res)
		}
		if elapsed > 2*tcfg.RPCTimeout {
			t.Fatalf("fallback get took %v, want < 2× the %v deadline", elapsed, tcfg.RPCTimeout)
		}

		// (b) The failure detector cleared the bit on the peer that hit
		// the dead holder.
		detected := 0
		for _, p := range peers {
			if !p.IsLive(victim) {
				detected++
			}
		}
		if detected == 0 {
			t.Fatalf("no surviving peer cleared P(%d)'s liveness bit", victim)
		}

		// The peer rejoins under the same PID: the register-live broadcast
		// must restore the bit everywhere, superseding detector history.
		rejoined, err := Listen(Config{PID: victim, M: m, B: b, Hasher: hashring.Fixed(4), Transport: tcfg, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		peers[victim] = rejoined
		if err := rejoined.Join(peers[holders[1]].Addr()); err != nil {
			t.Fatal(err)
		}
		for pid, p := range peers {
			if !p.IsLive(victim) {
				t.Fatalf("P(%d) still sees rejoined P(%d) as dead", pid, victim)
			}
		}
		// And the file still serves from everywhere, including the
		// rejoined peer.
		for pid := range peers {
			if _, err := NewClient(peers[pid].Addr()).Get("f"); err != nil {
				t.Fatalf("get via P(%d) after rejoin: %v", pid, err)
			}
		}
	}()

	// (c) Everything shut down: no goroutine may outlive its peer. Give
	// the runtime a moment to reap handler goroutines unblocked by the
	// closes above.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", baseline, g, buf[:runtime.Stack(buf, true)])
	}
}

// TestUpdateDeleteBroadcastSymmetry runs the two things a children-list
// broadcast carries — an update's notify, a delete — through the same
// awkward tree and expects the same shape from each: the tree root P(4) is
// dead, so the broadcast starts at its expanded children list, which
// includes the initiator P(5) itself (delivered locally, never over the
// wire — a self-RPC would double count), and the replica chain runs
// P(5) → P(7). The kinds share one
// initiation and one per-holder step (docs/ROUTING.md "Broadcast"); this
// table is what holds them to one behaviour:
//
//   - clean: every surviving copy touched exactly once;
//   - every peer: a copy on each of the 15 survivors, so the legs run the
//     whole tree, every level of it, and still touch each copy once;
//   - dropped leg: P(5)'s delivery to P(7) fails at the transport, and the
//     broadcast reaches the replica below it, P(3), through P(7)'s
//     expanded children list (§3) instead of losing the branch;
//   - duplicate: the same delivery frame sent to P(7) twice, then a stale
//     one — what the children of a peer see when its leg timed out after
//     it had applied and forwarded. Only the first touches the copy, and a
//     notify that has nothing to apply pulls nothing.
func TestUpdateDeleteBroadcastSymmetry(t *testing.T) {
	const name = "f"
	body := chunkPayload(8<<10, 70)
	start := func(t *testing.T, faults *transport.Faults, replicas ...bitops.PID) map[bitops.PID]*Peer {
		t.Helper()
		peers := startSystemWith(t, allPIDs(16), Config{M: 4, Hasher: hashring.Fixed(4), Faults: faults})
		if err := NewClient(peers[2].Addr()).Insert(name, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		for _, pid := range replicas {
			if err := NewClient(peers[pid].Addr()).Store(name, []byte("v1"), 1, true); err != nil {
				t.Fatal(err)
			}
		}
		peers[4].Close()
		delete(peers, 4)
		peers[5].ReportFailure(4)
		return peers
	}
	// shape is what the rows must agree on.
	type shape struct {
		copies    int
		delivered string // the HopDeliver PIDs, sorted
	}
	rows := []struct {
		label string
		kind  msg.Kind // what the broadcast legs carry
	}{
		{"notify update", msg.KindNotify},
		{"delete", msg.KindDelete},
	}
	pulls := func(peers map[bitops.PID]*Peer) uint64 {
		return sumWriteStat(peers, func(s *Stats) uint64 { return s.NotifyPulls.Load() })
	}
	// delivered lists the HopDeliver PIDs of a route, sorted, one entry per
	// record — a holder that applied twice shows twice.
	delivered := func(hops []msg.Hop) string {
		var pids []int
		for _, h := range hops {
			if h.Action == msg.HopDeliver {
				pids = append(pids, int(h.PID))
			}
		}
		sort.Ints(pids)
		return fmt.Sprint(pids)
	}
	// run initiates the row's operation at P(5), traced, and checks that
	// touched — and no other survivor — ended up with the new state.
	run := func(t *testing.T, kind msg.Kind, peers map[bitops.PID]*Peer, touched []bitops.PID, wantPulls uint64) shape {
		t.Helper()
		var (
			n    int
			path []msg.Hop
			err  error
		)
		if kind == msg.KindDelete {
			n, path, err = NewClient(peers[5].Addr()).DeleteTraced(name)
		} else {
			n, path, err = NewClient(peers[5].Addr()).UpdateTraced(name, body)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(path) == 0 || path[0].Action != msg.HopFanout || path[0].PID != 5 || path[0].Parent != msg.NoParent {
			t.Fatalf("trace root = %+v, want HopFanout at P(5)", path)
		}
		assertTree(t, path)
		isTouched := map[bitops.PID]bool{}
		var version uint64
		for _, pid := range touched {
			isTouched[pid] = true
			f, ok := peers[pid].store.Peek(name)
			switch {
			case kind == msg.KindDelete:
				if ok {
					t.Errorf("copy survived the delete at P(%d)", pid)
				}
				continue
			case !ok || !bytes.Equal(f.Data, body) || f.Version <= 1:
				t.Errorf("P(%d) holds v%d (%d bytes), want the new body", pid, f.Version, len(f.Data))
			case version != 0 && f.Version != version:
				t.Errorf("P(%d) holds v%d, another holder v%d", pid, f.Version, version)
			}
			version = f.Version
		}
		for pid, p := range peers {
			if f, ok := p.store.Peek(name); !isTouched[pid] && ok && (f.Version != 1 || string(f.Data) != "v1") {
				t.Errorf("P(%d), off the broadcast, holds v%d", pid, f.Version)
			}
		}
		if got := pulls(peers); got != wantPulls {
			t.Errorf("%d notify pulls, want %d", got, wantPulls)
		}
		return shape{copies: n, delivered: delivered(path)}
	}
	cases := []struct {
		label string
		want  shape
		run   func(t *testing.T, kind msg.Kind) shape
	}{
		{"clean", shape{2, "[5 7]"}, func(t *testing.T, kind msg.Kind) shape {
			peers := start(t, nil, 5, 7)
			wantPulls := uint64(0)
			if kind == msg.KindNotify {
				wantPulls = 1 // P(7); the initiator reads its own outbox
			}
			return run(t, kind, peers, []bitops.PID{5, 7}, wantPulls)
		}},
		{"every peer", shape{15, "[0 1 2 3 5 6 7 8 9 10 11 12 13 14 15]"}, func(t *testing.T, kind msg.Kind) shape {
			var survivors []bitops.PID
			for _, pid := range allPIDs(16) {
				if pid != 4 {
					survivors = append(survivors, pid)
				}
			}
			peers := start(t, nil, survivors...)
			wantPulls := uint64(0)
			if kind == msg.KindNotify {
				wantPulls = 14 // every survivor but the initiator
			}
			return run(t, kind, peers, survivors, wantPulls)
		}},
		{"dropped leg", shape{2, "[3 5]"}, func(t *testing.T, kind msg.Kind) shape {
			faults := transport.NewFaults()
			peers := start(t, faults, 5, 7, 3)
			faults.Add(transport.Rule{Addr: peers[7].Addr(), Kind: kind, Drop: true})
			wantPulls := uint64(0)
			if kind == msg.KindNotify {
				wantPulls = 1 // P(3)
			}
			s := run(t, kind, peers, []bitops.PID{5, 3}, wantPulls)
			if !peers[7].HasFile(name) {
				t.Error("P(7), whose delivery was dropped, lost its copy")
			}
			return s
		}},
		{"duplicate", shape{1, "[7]"}, func(t *testing.T, kind msg.Kind) shape {
			peers := start(t, nil, 5, 7)
			const version = 10
			frame := &msg.Request{
				Kind: kind, Flags: msg.FlagPropagate | msg.FlagTrace, TraceID: 1,
				Name: name, Version: version, Data: body,
			}
			if kind == msg.KindDelete {
				frame.Data = nil
			}
			if kind == msg.KindNotify {
				// P(12), off the replica chain, serves the pull.
				if err := NewClient(peers[12].Addr()).Store(name, body, version, true); err != nil {
					t.Fatal(err)
				}
				var err error
				frame.Data, err = msg.AppendNotifyReq(nil, &msg.NotifyReq{
					TotalSize: uint64(len(body)), FileCRC: crc32.Checksum(body, castagnoli),
					Sources: []msg.Holder{{PID: 12, Addr: peers[12].Addr(), Version: version}},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			stale := *frame
			stale.Version--
			var first shape
			for i, f := range []*msg.Request{frame, frame, &stale} {
				resp, err := NewClient(peers[7].Addr()).Do(f, false)
				if err != nil || !resp.OK {
					t.Fatalf("delivery %d: %+v, %v", i, resp, err)
				}
				if i == 0 {
					first = shape{copies: int(resp.Hops), delivered: delivered(resp.Path)}
				} else if resp.Hops != 0 {
					t.Errorf("delivery %d of the frame touched %d copies, want 0", i, resp.Hops)
				}
				if kind == msg.KindDelete {
					if tv, dead := peers[7].store.TombVersion(name); !dead || tv != version {
						t.Errorf("after delivery %d: tombstone v%d (%v), want v%d", i, tv, dead, version)
					}
				} else if f, ok := peers[7].store.Peek(name); !ok || f.Version != version || !bytes.Equal(f.Data, body) {
					t.Errorf("after delivery %d: P(7) holds v%d (%d bytes), want v%d", i, f.Version, len(f.Data), version)
				}
			}
			if got := pulls(peers); kind == msg.KindNotify && got != 1 {
				t.Errorf("%d notify pulls over three deliveries, want the first one's alone", got)
			}
			return first
		}},
	}
	for _, c := range cases {
		for _, row := range rows {
			t.Run(c.label+"/"+row.label, func(t *testing.T) {
				if got := c.run(t, row.kind); got != c.want {
					t.Errorf("shape %+v, want %+v — the same for every kind", got, c.want)
				}
			})
		}
	}
}
