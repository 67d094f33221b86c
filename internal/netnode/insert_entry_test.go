package netnode

// The insert rung of the write ladder (docs/ROUTING.md "The ladder"): a
// locate client names an insert's primaries from one KindTable snapshot
// and enters at the first, so the body moves once per copy. A stale or
// missing snapshot costs one hop, never a misplaced copy.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/transport"
)

// handled sums, across peers, the requests of kind k their handlers ran.
func handled(peers map[bitops.PID]*Peer, k msg.Kind) uint64 {
	var n uint64
	for _, p := range peers {
		n += p.obs.handleHist(k).Count()
	}
	return n
}

// primariesOf is where p's status word places name: handleInsert's list.
func primariesOf(p *Peer, name string) []bitops.PID {
	return p.view(p.hasher.Target(name, p.cfg.M)).AppendPrimaries(nil)
}

// enteredAt runs op and returns the one peer whose insert handler ran
// (an insert entry or a staged commit), failing unless exactly one did.
func enteredAt(t *testing.T, peers map[bitops.PID]*Peer, op func()) bitops.PID {
	t.Helper()
	entries := func() map[bitops.PID]uint64 {
		out := map[bitops.PID]uint64{}
		for pid, p := range peers {
			out[pid] = p.obs.handleHist(msg.KindInsert).Count() + p.Stats().WriteChunks.Load()
		}
		return out
	}
	before := entries()
	op()
	var at []bitops.PID
	for pid, n := range entries() {
		if n != before[pid] {
			at = append(at, pid)
		}
	}
	if len(at) != 1 {
		t.Fatalf("the insert entered at %v, want exactly one peer", at)
	}
	return at[0]
}

// nameWhere returns the first name "prefix#i" that satisfies ok.
func nameWhere(t *testing.T, prefix string, ok func(name string) bool) string {
	t.Helper()
	for i := 0; i < 1024; i++ {
		if name := fmt.Sprintf("%s#%d", prefix, i); ok(name) {
			return name
		}
	}
	t.Fatalf("no %s name has the wanted primaries", prefix)
	return ""
}

func TestInsertEntersAtPrimary(t *testing.T) {
	// newFabric is the ledger's shape — M = 3, B = 1, the default hasher —
	// with a locate client entering at P(0) over its own transport.
	newFabric := func(t *testing.T, pids []bitops.PID) (map[bitops.PID]*Peer, *Client, *transport.Transport) {
		peers := startSystem(t, 3, 1, pids, nil)
		tr := transport.New(transport.Config{}, nil)
		t.Cleanup(func() { tr.Close() })
		return peers, NewLocateClientWith(peers[0].Addr(), tr, LocateOptions{}), tr
	}
	sent := func(tr *transport.Transport, k msg.Kind) uint64 { return tr.Latency(k).Count() }

	t.Run("4KiB", func(t *testing.T) {
		peers, cl, tr := newFabric(t, allPIDs(8))
		const n = 16
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("entry/%d", i)
			placed := handled(peers, msg.KindNotify)
			at := enteredAt(t, peers, func() {
				if err := cl.Insert(name, chunkPayload(4<<10, int64(i))); err != nil {
					t.Fatal(err)
				}
			})
			prims := primariesOf(peers[0], name)
			if !slices.Contains(prims, at) {
				t.Fatalf("%s entered at P(%d), not at one of its primaries %v", name, at, prims)
			}
			if got := handled(peers, msg.KindNotify) - placed; got != 1 {
				t.Fatalf("%s: %d placements across the fabric, want 1 (the other primary's copy)", name, got)
			}
			for _, h := range prims {
				if !peers[h].store.Has(name) {
					t.Fatalf("%s: primary P(%d) holds no copy", name, h)
				}
			}
			if len(holdersOf(peers, name)) != len(prims) {
				t.Fatalf("%s held by %v, want only its primaries %v", name, holdersOf(peers, name), prims)
			}
			if got := sent(tr, msg.KindTable); got != 1 {
				t.Fatalf("after %d inserts the client sent %d KindTable, want the first insert's one", i+1, got)
			}
		}
		if got := sent(tr, msg.KindInsert); got != n {
			t.Fatalf("%d KindInsert sent for %d inserts", got, n)
		}
		atHolder := sumWriteStat(peers, func(s *Stats) uint64 { return s.WritesAtHolder.Load() })
		remote := sumWriteStat(peers, func(s *Stats) uint64 { return s.WritesRemote.Load() })
		if atHolder != n || remote != 0 {
			t.Fatalf("writes_at_holder=%d writes_remote=%d, want %d/0", atHolder, remote, n)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// The gateway's and the ledger's clients insert from many
		// goroutines: they share one table fetch and one snapshot.
		peers, cl, tr := newFabric(t, allPIDs(8))
		const workers, each = 8, 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := cl.Insert(fmt.Sprintf("entry/c%d-%d", w, i), []byte("c")); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		if got := sent(tr, msg.KindTable); got != 1 {
			t.Fatalf("%d KindTable sent by %d concurrent inserters, want 1", got, workers)
		}
		if got := sumWriteStat(peers, func(s *Stats) uint64 { return s.WritesAtHolder.Load() }); got != workers*each {
			t.Fatalf("writes_at_holder=%d, want every one of the %d inserts", got, workers*each)
		}
	})

	// The placement split: a body rides the other primary's placement
	// inline while it and the facts fill at most one frame, so the largest
	// whole-frame insert (MaxData) is already pulled; over one frame the
	// insert is staged, and the staged buffer is the entry primary's copy.
	facts, err := msg.AppendNotifyReq(nil, &msg.NotifyReq{TotalSize: 1, Body: []byte{0}})
	if err != nil {
		t.Fatal(err)
	}
	inlineMax := msg.MaxData - len(facts)
	if !msg.NotifyInline(inlineMax) || msg.NotifyInline(inlineMax+1) {
		t.Fatalf("NotifyInline splits away from %d bytes", inlineMax)
	}
	for _, c := range []struct {
		name  string
		size  int
		pulls uint64
		// remote also inserts the body whole-frame through a peer that is
		// no primary: both primaries pull it from that peer's outbox.
		remote bool
	}{
		{"inline_max", inlineMax, 0, false},
		{"maxdata", msg.MaxData, 1, true},
		{"overframe", msg.MaxData + 1<<20, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("moves a 16 MiB body through the fabric")
			}
			peers, cl, _ := newFabric(t, allPIDs(8))
			body := chunkPayload(c.size, 91)
			fetches := handled(peers, msg.KindFetch)
			at := enteredAt(t, peers, func() {
				if err := cl.Insert("entry/big", body); err != nil {
					t.Fatal(err)
				}
			})
			prims := primariesOf(peers[0], "entry/big")
			if !slices.Contains(prims, at) {
				t.Fatalf("entered at P(%d), not at one of the primaries %v", at, prims)
			}
			// The entry primary stores its own copy; only the other
			// primary's may pull the body.
			if got := sumWriteStat(peers, func(s *Stats) uint64 { return s.NotifyPulls.Load() }); got != c.pulls {
				t.Fatalf("%d pulls of the body, want %d", got, c.pulls)
			}
			if got := handled(peers, msg.KindFetch) - fetches; (got == 0) != (c.pulls == 0) {
				t.Fatalf("%d KindFetch served for %d pulls", got, c.pulls)
			}
			for _, h := range prims {
				if f, ok := peers[h].store.Get("entry/big"); !ok || !bytes.Equal(f.Data, body) {
					t.Fatalf("primary P(%d) holds no intact copy", h)
				}
			}
			if c.remote {
				name := nameWhere(t, "entry/remote", func(name string) bool {
					return !slices.Contains(primariesOf(peers[0], name), 0)
				})
				if err := NewClient(peers[0].Addr()).Insert(name, body); err != nil {
					t.Fatal(err)
				}
				if got := sumWriteStat(peers, func(s *Stats) uint64 { return s.NotifyPulls.Load() }); got != c.pulls+2 {
					t.Fatalf("%d pulls after an insert entering at no primary, want %d", got, c.pulls+2)
				}
				for _, h := range primariesOf(peers[0], name) {
					if f, ok := peers[h].store.Get(name); !ok || !bytes.Equal(f.Data, body) {
						t.Fatalf("primary P(%d) holds no intact copy of %s", h, name)
					}
				}
			}
			for pid, p := range peers {
				p.outbox.mu.Lock()
				parked := len(p.outbox.entries)
				p.outbox.mu.Unlock()
				if parked != 0 {
					t.Fatalf("P(%d) still parks %d outbox entries", pid, parked)
				}
			}
		})
	}

	t.Run("stale_join", func(t *testing.T) {
		// P(j) is absent when the snapshot is taken and joins before the
		// insert; the name is chosen so that P(j) becomes the primary the
		// snapshot sends the insert to someone else for.
		const j = 5
		pids := slices.DeleteFunc(allPIDs(8), func(p bitops.PID) bool { return p == j })
		peers, cl, tr := newFabric(t, pids)
		if err := cl.Insert("entry/warm", []byte("w")); err != nil { // takes the snapshot
			t.Fatal(err)
		}
		joiner, err := Listen(Config{PID: j, M: 3, B: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { joiner.Close() })
		joined := peers[0].rt().live.Clone()
		joined.SetLive(j)
		name := nameWhere(t, "entry/stale", func(name string) bool {
			return ptree.NewView(hashring.Default.Target(name, 3), joined, 1).AppendPrimaries(nil)[0] == j
		})
		old := primariesOf(peers[0], name)[0]
		if err := joiner.Join(peers[0].Addr()); err != nil {
			t.Fatal(err)
		}
		peers[j] = joiner
		remote := peers[old].Stats().WritesRemote.Load()
		at := enteredAt(t, peers, func() {
			if err := cl.Insert(name, []byte("after the join")); err != nil {
				t.Fatal(err)
			}
		})
		if at != old {
			t.Fatalf("the insert entered at P(%d), want the snapshot's primary P(%d)", at, old)
		}
		if peers[old].Stats().WritesRemote.Load() != remote+1 {
			t.Fatalf("P(%d) did not count the insert as a remote entry", old)
		}
		want := primariesOf(peers[0], name)
		if !slices.Contains(want, j) || slices.Contains(want, old) {
			t.Fatalf("current primaries %v, want P(%d) in place of P(%d)", want, j, old)
		}
		got := holdersOf(peers, name)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("held by %v, want the current primaries %v", got, want)
		}
		if got := tr.Latency(msg.KindTable).Count(); got != 1 {
			t.Fatalf("%d KindTable sent, want 1: an acked insert keeps the snapshot", got)
		}
	})

	t.Run("stale_close", func(t *testing.T) {
		// The name's first primary closes after the snapshot is taken. The
		// client enters over it and P(0), so the entry-peer attempt must
		// also pass over the peer that just failed.
		peers := startSystem(t, 3, 1, allPIDs(8), nil)
		name := nameWhere(t, "entry/closed", func(name string) bool {
			return !slices.Contains(primariesOf(peers[0], name), 0)
		})
		prims := primariesOf(peers[0], name)
		closed, other := prims[0], prims[1]
		tr := transport.New(transport.Config{}, nil)
		t.Cleanup(func() { tr.Close() })
		cl := NewLocateClientOver([]string{peers[closed].Addr(), peers[0].Addr()}, nil, tr, LocateOptions{})
		if err := cl.Insert("entry/warm", []byte("w")); err != nil { // takes the snapshot
			t.Fatal(err)
		}
		peers[closed].Close()
		delete(peers, closed)
		at := enteredAt(t, peers, func() {
			if err := cl.Insert(name, []byte("one primary down")); err != nil {
				t.Fatalf("insert with its first primary closed: %v", err)
			}
		})
		if at != 0 {
			t.Fatalf("the insert entered at P(%d), want the entry peer P(0)", at)
		}
		if got := sent(tr, msg.KindInsert); got != 3 {
			t.Fatalf("%d KindInsert sent, want warm-up, the closed primary, the entry peer", got)
		}
		if !peers[other].store.Has(name) {
			t.Fatalf("the surviving primary P(%d) holds no copy", other)
		}
		if got := handled(peers, msg.KindTable); got != 1 {
			t.Fatalf("%d tables served before the next insert, want 1", got)
		}
		if err := cl.Insert("entry/next", []byte("n")); err != nil {
			t.Fatal(err)
		}
		if got := handled(peers, msg.KindTable); got != 2 {
			t.Fatalf("%d tables served, want a fresh snapshot for the next insert", got)
		}
	})

	t.Run("fixed_hasher", func(t *testing.T) {
		// A target the client cannot compute: the one table answer says so,
		// and inserts keep round-robin entry.
		peers := startSystem(t, 3, 1, allPIDs(8), hashring.Fixed(2))
		tr := transport.New(transport.Config{}, nil)
		t.Cleanup(func() { tr.Close() })
		cl := NewLocateClientOver([]string{peers[0].Addr(), peers[1].Addr()}, nil, tr, LocateOptions{})
		for i := 0; i < 4; i++ {
			if err := cl.Insert(fmt.Sprintf("entry/fixed%d", i), []byte("f")); err != nil {
				t.Fatal(err)
			}
		}
		if got := sent(tr, msg.KindTable); got != 1 {
			t.Fatalf("%d KindTable sent, want only the answer that names the hasher", got)
		}
		for _, pid := range []bitops.PID{0, 1} {
			if got := peers[pid].obs.handleHist(msg.KindInsert).Count(); got != 2 {
				t.Fatalf("entry peer P(%d) took %d of 4 inserts, want 2", pid, got)
			}
		}
	})

	t.Run("encoding", func(t *testing.T) {
		// The snapshot is the entry peer's status word, down marks included.
		peers, cl, _ := newFabric(t, allPIDs(8))
		peers[0].peerDown(3)
		pl := cl.placement()
		if pl == nil || pl.m != 3 || pl.b != 1 || !pl.live.Equal(peers[0].rt().live) || len(pl.addrs) != 8 {
			t.Fatalf("snapshot %+v does not match P(0)'s status word", pl)
		}
		// An answer that does not decode places nothing: it is counted,
		// not fetched again, and inserts go to the entry peer.
		srv, err := transport.Listen("127.0.0.1:0", func(req *msg.Request) *msg.Response {
			if req.Kind == msg.KindTable {
				return &msg.Response{OK: true, Data: []byte("0 127.0.0.1:1\n")}
			}
			return &msg.Response{OK: true, ServedBy: 7}
		}, transport.ServeLoopOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		tr := transport.New(transport.Config{}, nil)
		t.Cleanup(func() { tr.Close() })
		bad := NewLocateClientWith(srv.Addr(), tr, LocateOptions{})
		for i := 0; i < 2; i++ {
			if err := bad.Insert("entry/bad", []byte("b")); err != nil {
				t.Fatal(err)
			}
		}
		if tables, inserts := sent(tr, msg.KindTable), sent(tr, msg.KindInsert); tables != 1 || inserts != 2 {
			t.Fatalf("sent %d KindTable and %d KindInsert, want 1 and 2", tables, inserts)
		}
		if got := bad.LocateStats().FetchErrors.Load(); got != 1 {
			t.Fatalf("fetch_errors=%d, want the refused table counted once", got)
		}
	})
}

// TestJoinRefusesMismatchedShape: a joiner whose M or B differs from the
// fabric's would place every name where no member looks; Join refuses it
// before registering, so no member ever lists it.
func TestJoinRefusesMismatchedShape(t *testing.T) {
	peers := startSystem(t, 3, 1, allPIDs(7), nil)
	joiner, err := Listen(Config{PID: 7, M: 3, B: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.Join(peers[0].Addr()); err == nil {
		t.Fatal("a B=0 joiner joined an M=3, B=1 fabric")
	}
	for pid, p := range peers {
		if _, listed := p.rt().addrs[7]; listed || p.rt().live.IsLive(7) {
			t.Fatalf("P(%d) lists the refused joiner", pid)
		}
	}
}
