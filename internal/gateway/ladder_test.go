package gateway

// One table of ladder scenarios (docs/ROUTING.md "The ladder"), run through
// both consumers of the one implementation — a bare netnode.Client and a
// Gateway — over the same kind of in-process fabric. Each case asserts the
// rung sequence from the consumer transport's per-kind RPC counts and the
// shared ladder counters, not from outcomes alone: a get that "works" by
// relaying where it should have fetched fails here.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"lesslog/internal/msg"
	"lesslog/internal/netnode"
	"lesslog/internal/stream"
	"lesslog/internal/transport"
)

// ladderChunk is the chunk size both consumers fetch with: small enough
// that the raced-transfer case spans several ranges.
const ladderChunk = 1 << 10

// ladderRead is one read's outcome, in the terms both consumers share.
type ladderRead struct {
	data     []byte
	version  uint64
	servedBy uint32
}

// ladderConsumer is one way of driving the shared ladder.
type ladderConsumer struct {
	// get reads name on behalf of a caller that has seen minVer acknowledged.
	get    func(name string, minVer uint64) (ladderRead, error)
	insert func(name string, data []byte) error
	update func(name string, data []byte) error
	stats  *netnode.LocateStats
	chunks *stream.Stats
	tr     *transport.Transport
	hints  func() int
	// enforcesFloor: the consumer refuses a last-rung answer below minVer
	// itself (the gateway's admitFillData); a bare client hands it back.
	enforcesFloor bool
}

// rpcs is the consumer transport's exchange count per kind.
type rpcs struct{ get, locateSet, fetch, update, insert, table uint64 }

func (c *ladderConsumer) rpcs() rpcs {
	n := func(k msg.Kind) uint64 { return c.tr.Latency(k).Count() }
	return rpcs{
		n(msg.KindGet), n(msg.KindLocateSet), n(msg.KindFetch), n(msg.KindUpdate),
		n(msg.KindInsert), n(msg.KindTable),
	}
}

func (a rpcs) since(b rpcs) rpcs {
	return rpcs{
		a.get - b.get, a.locateSet - b.locateSet, a.fetch - b.fetch, a.update - b.update,
		a.insert - b.insert, a.table - b.table,
	}
}

// ladderEnv is one case's world: a fresh fabric holding one name, and a
// consumer entering it at peers that hold no copy (so a relay really relays
// and a write entering at a holder can only have been hint-guided).
type ladderEnv struct {
	t       *testing.T
	peers   []*netnode.Peer
	holders []*netnode.Peer
	seed    *netnode.Client // plain client for out-of-band writes
	c       *ladderConsumer
}

const ladderName = "ladder/f"

func newLadderEnv(t *testing.T, b int, gatewayed bool, faults *transport.Faults) *ladderEnv {
	addrs, peers := startLocateFabric(t, 3, b, 8)
	env := &ladderEnv{t: t, peers: peers, seed: netnode.NewClient(addrs[0])}
	if err := env.seed.Insert(ladderName, ladderBody(1)); err != nil {
		t.Fatal(err)
	}
	var entries []string
	for i, p := range peers {
		if p.HasFile(ladderName) {
			env.holders = append(env.holders, p)
		} else if len(entries) < 2 {
			entries = append(entries, addrs[i])
		}
	}
	if len(env.holders) != 1<<b {
		t.Fatalf("%d holders, want %d", len(env.holders), 1<<b)
	}
	// No transport-level retries: one ladder exchange is one counted RPC.
	tcfg := transport.Config{Retries: -1}
	if gatewayed {
		g := newGateway(t, Config{
			Peers: entries, CacheSize: -1, ChunkSize: ladderChunk,
			Transport: tcfg, Faults: faults,
		})
		env.c = &ladderConsumer{
			get: func(name string, minVer uint64) (ladderRead, error) {
				if minVer > 0 {
					g.cache.ackUpdate(name, nil, nil, minVer)
				}
				res, err := g.Get(name)
				return ladderRead{res.Data, res.Version, res.ServedBy}, err
			},
			insert: func(name string, data []byte) error {
				_, err := g.Insert(name, data)
				return err
			},
			update: func(name string, data []byte) error {
				_, err := g.Update(name, data)
				return err
			},
			stats: g.Counters().LocateStats, chunks: g.client.StreamStats(),
			tr: g.Transport(), hints: g.HintLen, enforcesFloor: true,
		}
		return env
	}
	tr := transport.New(tcfg, faults)
	t.Cleanup(func() { tr.Close() })
	cl := netnode.NewLocateClientWith(entries[0], tr, netnode.LocateOptions{ChunkSize: ladderChunk})
	env.c = &ladderConsumer{
		get: func(name string, minVer uint64) (ladderRead, error) {
			res, err := cl.GetAtLeast(name, minVer)
			return ladderRead{res.Data, res.Version, res.ServedBy}, err
		},
		insert: func(name string, data []byte) error { return cl.Insert(name, data) },
		update: func(name string, data []byte) error {
			_, err := cl.Update(name, data)
			return err
		},
		stats: cl.LocateStats(), chunks: cl.StreamStats(),
		tr: tr, hints: cl.HintLen,
	}
	return env
}

// ladderBody is an 8-chunk payload recognisable by its fill byte.
func ladderBody(v byte) []byte { return bytes.Repeat([]byte{v}, 8*ladderChunk) }

// warm runs the cold get that leaves the replica-set hint behind.
func (e *ladderEnv) warm() ladderRead {
	e.t.Helper()
	res, err := e.c.get(ladderName, 0)
	if err != nil {
		e.t.Fatalf("warming get: %v", err)
	}
	return res
}

// mustServe reads and checks the payload is exactly version body v.
func (e *ladderEnv) mustServe(v byte) ladderRead {
	e.t.Helper()
	res, err := e.c.get(ladderName, 0)
	if err != nil {
		e.t.Fatal(err)
	}
	if !bytes.Equal(res.data, ladderBody(v)) {
		e.t.Fatalf("served %d bytes starting %v, want body %d", len(res.data), res.data[:1], v)
	}
	return res
}

func (e *ladderEnv) sumPeers(read func(*netnode.Stats) uint64) uint64 {
	var n uint64
	for _, p := range e.peers {
		n += read(p.Stats())
	}
	return n
}

func (e *ladderEnv) peerByPID(pid uint32) *netnode.Peer {
	for _, p := range e.peers {
		if uint32(p.PID()) == pid {
			return p
		}
	}
	e.t.Fatalf("no peer P(%d)", pid)
	return nil
}

var ladderCases = []struct {
	name   string
	b      int                      // replication bits: 2^b copies
	faults func() *transport.Faults // injected into the consumer's transport
	run    func(e *ladderEnv)
}{
	{name: "warm set: fetch RPCs only, zero locates", b: 1, run: func(e *ladderEnv) {
		e.warm()
		r0, hits0 := e.c.rpcs(), e.c.stats.HintHits.Load()
		e.mustServe(1)
		if d := e.c.rpcs().since(r0); d != (rpcs{fetch: 8}) {
			e.t.Fatalf("warm get issued %+v, want 8 fetches and nothing else", d)
		}
		if e.c.stats.HintHits.Load() != hits0+1 {
			e.t.Fatal("warm get not counted as a hint hit")
		}
	}},
	{name: "holder answers not-holder: hint purged, one locate-set, served", b: 0, run: func(e *ladderEnv) {
		e.warm()
		// The one holder leaves gracefully: its copy moves to the successor
		// and it stays up, answering not-holder.
		if err := e.holders[0].Leave(); err != nil {
			e.t.Fatal(err)
		}
		r0, stale0 := e.c.rpcs(), e.c.stats.HintStale.Load()
		res := e.mustServe(1)
		if res.servedBy == uint32(e.holders[0].PID()) {
			e.t.Fatal("served by the holder that left")
		}
		// One refused head chunk at the stale holder, one locate-set, then
		// the whole transfer at the new holder.
		if d := e.c.rpcs().since(r0); d != (rpcs{locateSet: 1, fetch: 1 + 8}) {
			e.t.Fatalf("stale-hint get issued %+v, want 1 locate-set and 9 fetches", d)
		}
		if e.c.stats.HintStale.Load() != stale0+1 || e.c.stats.Relays.Load() != 0 {
			e.t.Fatalf("hint_stale=%d relays=%d, want %d/0",
				e.c.stats.HintStale.Load(), e.c.stats.Relays.Load(), stale0+1)
		}
	}},
	{name: "holder dead: purged everywhere, served from the rest of the set", b: 1, run: func(e *ladderEnv) {
		res := e.warm()
		e.peerByPID(res.servedBy).Close() // the set's first source
		r0, retries0 := e.c.rpcs(), e.c.chunks.ChunkRetries.Load()
		e.mustServe(1)
		if d := e.c.rpcs().since(r0); d.locateSet != 0 || d.get != 0 {
			e.t.Fatalf("dead-holder get issued %+v, want fetches only", d)
		}
		if e.c.chunks.ChunkRetries.Load() == retries0 {
			e.t.Fatal("no range moved to the surviving replica")
		}
		if e.c.hints() != 1 {
			e.t.Fatalf("hint entries = %d, want the pruned survivor set", e.c.hints())
		}
		// PurgeHolder took the dead address out of the set for good.
		r0 = e.c.rpcs()
		e.mustServe(1)
		if d := e.c.rpcs().since(r0); d != (rpcs{fetch: 8}) {
			e.t.Fatalf("get after the purge issued %+v, want 8 fetches at the survivor", d)
		}
	}},
	{
		name: "pinned version raced by an update: exactly one re-locate", b: 1,
		// The first transfer's head chunk passes at once; its seven body
		// ranges stall long enough for an update to land in between.
		faults: func() *transport.Faults {
			return transport.NewFaults().
				Add(transport.Rule{Kind: msg.KindFetch, Times: 1}).
				Add(transport.Rule{Kind: msg.KindFetch, Delay: 400 * time.Millisecond, Times: 7})
		},
		run: func(e *ladderEnv) {
			served0 := e.sumPeers(func(s *netnode.Stats) uint64 { return s.ChunksServed.Load() })
			done := make(chan struct{})
			go func() {
				defer close(done)
				for e.sumPeers(func(s *netnode.Stats) uint64 { return s.ChunksServed.Load() }) == served0 {
					time.Sleep(time.Millisecond)
				}
				if _, err := e.seed.Update(ladderName, ladderBody(2)); err != nil {
					e.t.Error(err)
				}
			}()
			r0 := e.c.rpcs()
			e.mustServe(2) // one version's bytes, and the new one
			<-done
			d := e.c.rpcs().since(r0)
			if d.locateSet != 2 || d.get != 0 || e.c.stats.Relays.Load() != 0 {
				e.t.Fatalf("raced cold get issued %+v (relays=%d), want the locate-set and exactly one re-locate",
					d, e.c.stats.Relays.Load())
			}
			if e.sumPeers(func(s *netnode.Stats) uint64 { return s.ChunkRefusals.Load() }) == 0 {
				e.t.Fatal("no version-pinned range was refused: the race never happened")
			}
		},
	},
	{
		name: "every replica unreachable on the chunk plane: relay", b: 1,
		faults: func() *transport.Faults {
			return transport.NewFaults().Add(transport.Rule{Kind: msg.KindFetch, Drop: true})
		},
		run: func(e *ladderEnv) {
			relayed0 := e.sumPeers(func(s *netnode.Stats) uint64 { return s.RelayedBytes.Load() })
			r0 := e.c.rpcs()
			e.mustServe(1)
			if d := e.c.rpcs().since(r0); d.locateSet != 1 || d.get != 1 {
				e.t.Fatalf("get with a dead chunk plane issued %+v, want one locate-set then one relay get", d)
			}
			if e.c.stats.Relays.Load() != 1 {
				e.t.Fatalf("relays = %d, want 1", e.c.stats.Relays.Load())
			}
			if e.sumPeers(func(s *netnode.Stats) uint64 { return s.RelayedBytes.Load() }) == relayed0 {
				e.t.Fatal("relayed_bytes did not move: the payload did not come back through the lookup path")
			}
		},
	},
	{name: "update with a warm hint: enters at the holder, hint refreshed in place", b: 1, run: func(e *ladderEnv) {
		e.warm()
		atHolder := func() uint64 { return e.sumPeers(func(s *netnode.Stats) uint64 { return s.WritesAtHolder.Load() }) }
		remote := func() uint64 { return e.sumPeers(func(s *netnode.Stats) uint64 { return s.WritesRemote.Load() }) }
		h0, rm0, r0 := atHolder(), remote(), e.c.rpcs()
		if err := e.c.update(ladderName, ladderBody(2)); err != nil {
			e.t.Fatal(err)
		}
		if d := e.c.rpcs().since(r0); d != (rpcs{update: 1}) {
			e.t.Fatalf("hinted update issued %+v, want the one update RPC", d)
		}
		if atHolder() != h0+1 || remote() != rm0 {
			e.t.Fatalf("writes_at_holder +%d writes_remote +%d, want +1/+0", atHolder()-h0, remote()-rm0)
		}
		if e.c.stats.HintRefreshes.Load() != 1 || e.c.hints() != 1 {
			e.t.Fatalf("hint_refreshes=%d hints=%d, want 1/1", e.c.stats.HintRefreshes.Load(), e.c.hints())
		}
		r0 = e.c.rpcs()
		e.mustServe(2)
		if d := e.c.rpcs().since(r0); d != (rpcs{fetch: 8}) {
			e.t.Fatalf("read-after-write issued %+v, want 8 fetches off the refreshed hint", d)
		}
	}},
	{name: "update with no hint: one locate-set names the entry, its set serves the next get", b: 1, run: func(e *ladderEnv) {
		atHolder := func() uint64 { return e.sumPeers(func(s *netnode.Stats) uint64 { return s.WritesAtHolder.Load() }) }
		h0, r0 := atHolder(), e.c.rpcs()
		if err := e.c.update(ladderName, ladderBody(2)); err != nil {
			e.t.Fatal(err)
		}
		if d := e.c.rpcs().since(r0); d != (rpcs{locateSet: 1, update: 1}) {
			e.t.Fatalf("hint-less update issued %+v, want one locate-set and the update", d)
		}
		if atHolder() != h0+1 {
			e.t.Fatal("the update did not enter at the holder the locate-set reached")
		}
		// The write-entry locate cached the whole two-holder set: the next get
		// stripes across both holders, with no further locate-set.
		served0 := []uint64{e.holders[0].Stats().ChunksServed.Load(), e.holders[1].Stats().ChunksServed.Load()}
		r0 = e.c.rpcs()
		e.mustServe(2)
		if d := e.c.rpcs().since(r0); d != (rpcs{fetch: 8}) {
			e.t.Fatalf("get after the hint-less update issued %+v, want 8 fetches off the cached set", d)
		}
		for i, h := range e.holders {
			if h.Stats().ChunksServed.Load() == served0[i] {
				e.t.Fatalf("holder P(%d) served no chunk: the cached set lost it", h.PID())
			}
		}
	}},
	{name: "insert: one table fetch, then the insert at a primary", b: 1, run: func(e *ladderEnv) {
		atHolder := func() uint64 { return e.sumPeers(func(s *netnode.Stats) uint64 { return s.WritesAtHolder.Load() }) }
		remote := func() uint64 { return e.sumPeers(func(s *netnode.Stats) uint64 { return s.WritesRemote.Load() }) }
		for i, want := range []rpcs{{table: 1, insert: 1}, {insert: 1}} {
			name := fmt.Sprintf("ladder/new%d", i)
			h0, rm0, r0 := atHolder(), remote(), e.c.rpcs()
			if err := e.c.insert(name, ladderBody(3)); err != nil {
				e.t.Fatal(err)
			}
			if d := e.c.rpcs().since(r0); d != want {
				e.t.Fatalf("insert %d issued %+v, want %+v", i, d, want)
			}
			// The entry peer is one of the two primaries: it keeps its copy
			// and sends the other one, never a third.
			if atHolder() != h0+1 || remote() != rm0 {
				e.t.Fatalf("insert %d: writes_at_holder +%d writes_remote +%d, want +1/+0",
					i, atHolder()-h0, remote()-rm0)
			}
			holders := 0
			for _, p := range e.peers {
				if p.HasFile(name) {
					holders++
				}
			}
			if holders != 2 {
				e.t.Fatalf("insert %d: %d holders, want the two primaries", i, holders)
			}
		}
	}},
	{name: "read below the floor: purge and re-resolve, never served", b: 1, run: func(e *ladderEnv) {
		held := e.warm().version
		r0, stale0 := e.c.rpcs(), e.c.stats.HintStale.Load()
		res, err := e.c.get(ladderName, held+100)
		// Hinted set below the floor → purged; locate-set → fetched, still
		// below → purged; relay, whose answer is the caller's to judge.
		if d := e.c.rpcs().since(r0); d != (rpcs{get: 1, locateSet: 1, fetch: 16}) {
			e.t.Fatalf("below-floor get issued %+v, want hinted transfer, locate-set, transfer, relay get", d)
		}
		if e.c.stats.HintStale.Load() != stale0+1 || e.c.hints() != 0 {
			e.t.Fatalf("hint_stale +%d hints=%d, want +1 and the set purged",
				e.c.stats.HintStale.Load()-stale0, e.c.hints())
		}
		if e.c.enforcesFloor {
			if !errors.Is(err, ErrStaleRead) {
				e.t.Fatalf("below-floor read = %+v, %v; want ErrStaleRead", res, err)
			}
		} else if err != nil || res.version != held {
			e.t.Fatalf("last rung = v%d, %v; want the relay's v%d handed back for the caller's check", res.version, err, held)
		}
	}},
}

func TestLadderBothConsumers(t *testing.T) {
	for _, tc := range ladderCases {
		for _, consumer := range []string{"client", "gateway"} {
			t.Run(tc.name+"/"+consumer, func(t *testing.T) {
				var faults *transport.Faults
				if tc.faults != nil {
					faults = tc.faults()
				}
				tc.run(newLadderEnv(t, tc.b, consumer == "gateway", faults))
			})
		}
	}
}
