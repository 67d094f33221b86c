package gateway

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/msg"
	"lesslog/internal/netnode"
	"lesslog/internal/transport"
)

// startFabric boots an n-peer networked fabric in an m-bit PID space and
// returns every peer's listen address, PID order.
func startFabric(t testing.TB, m, n int) []string {
	t.Helper()
	addrs := make(map[bitops.PID]string, n)
	peers := make([]*netnode.Peer, 0, n)
	for i := 0; i < n; i++ {
		p, err := netnode.Listen(netnode.Config{PID: bitops.PID(i), M: m})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
		addrs[bitops.PID(i)] = p.Addr()
	}
	flat := make([]string, n)
	for i, p := range peers {
		p.SetAddrs(addrs)
		flat[i] = addrs[bitops.PID(i)]
	}
	return flat
}

func newGateway(t testing.TB, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestGetThroughGateway(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:3]})

	// A write through the gateway is cached write-through: the next read
	// is a hit without touching the fabric.
	wr, err := g.Insert("g/a", []byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if wr.Version == 0 {
		t.Fatal("insert acked without a version stamp")
	}
	res, err := g.Get("g/a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceCache || !bytes.Equal(res.Data, []byte("alpha")) || res.Version != wr.Version {
		t.Fatalf("post-insert get = %+v", res)
	}
	if g.Counters().Hits.Value() != 1 {
		t.Fatalf("hits = %d, want 1", g.Counters().Hits.Value())
	}

	// A file the gateway has never seen: first get fills from the fabric,
	// second hits the fill.
	if err := netnode.NewClient(addrs[7]).Insert("g/b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	res, err = g.Get("g/b")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceFabric || !bytes.Equal(res.Data, []byte("beta")) {
		t.Fatalf("cold get = %+v", res)
	}
	res, err = g.Get("g/b")
	if err != nil || res.Source != SourceCache {
		t.Fatalf("warm get = %+v, %v", res, err)
	}

	// Misses on missing files surface the fabric's fault.
	if _, err := g.Get("g/ghost"); !errors.Is(err, ErrFault) {
		t.Fatalf("ghost get err = %v", err)
	}
}

func TestUpdateAndDeleteMaintainCache(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:2]})

	if _, err := g.Insert("g/u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	wr, err := g.Update("g/u", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if wr.Copies < 1 {
		t.Fatalf("update copies = %d", wr.Copies)
	}
	res, err := g.Get("g/u")
	if err != nil || !bytes.Equal(res.Data, []byte("v2")) || res.Version != wr.Version {
		t.Fatalf("post-update get = %+v, %v", res, err)
	}

	if _, err := g.Delete("g/u"); err != nil {
		t.Fatal(err)
	}
	// The cached copy must not outlive the acknowledged delete.
	if _, err := g.Get("g/u"); !errors.Is(err, ErrFault) {
		t.Fatalf("post-delete get err = %v", err)
	}
}

// TestReadNeverOlderThanAcknowledgedWrite is the gateway's consistency
// contract, end to end: once an update through this gateway has been
// acknowledged, no Get through the same gateway — cache hit, coalesced
// ride-along, or fabric fetch — returns older data. The cache TTL is one
// nanosecond so every read is forced back to the fabric through the
// version-floor machinery, and readers race the writer under -race.
func TestReadNeverOlderThanAcknowledgedWrite(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:4], CacheTTL: time.Nanosecond})

	const name = "rw/f"
	wr, err := g.Insert(name, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Uint64
	acked.Store(wr.Version)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Load the newest acknowledged version BEFORE starting the
				// read: the contract covers exactly the writes acknowledged
				// before the Get began.
				floor := acked.Load()
				res, err := g.Get(name)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if res.Version < floor {
					t.Errorf("get returned version %d (source %v) after version %d was acknowledged",
						res.Version, res.Source, floor)
					return
				}
			}
		}()
	}
	for i := 1; i <= 60; i++ {
		wr, err := g.Update(name, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		// Only after the fabric acknowledged does the bar rise.
		acked.Store(wr.Version)
	}
	close(done)
	wg.Wait()
}

func TestCoalescingCollapsesConcurrentGets(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	if err := netnode.NewClient(addrs[3]).Insert("c/hot", []byte("hot")); err != nil {
		t.Fatal(err)
	}
	// Every fabric get takes 100ms, so readers launched together all ride
	// one flight.
	faults := transport.NewFaults().Add(transport.Rule{Delay: 100 * time.Millisecond})
	g := newGateway(t, Config{Peers: addrs[:2], Faults: faults})

	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := g.Get("c/hot")
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if !bytes.Equal(res.Data, []byte("hot")) {
				t.Errorf("get data = %q", res.Data)
			}
		}()
	}
	close(start)
	wg.Wait()
	c := g.Counters()
	if c.Misses.Value() != 1 || c.Coalesced.Value() != readers-1 {
		t.Fatalf("misses = %d coalesced = %d, want 1 and %d",
			c.Misses.Value(), c.Coalesced.Value(), readers-1)
	}
}

func TestAdmissionShedsUnderLoad(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	if err := netnode.NewClient(addrs[0]).Insert("a/slow", []byte("x")); err != nil {
		t.Fatal(err)
	}
	faults := transport.NewFaults().Add(transport.Rule{Delay: 300 * time.Millisecond})
	g := newGateway(t, Config{
		Peers: addrs[:2], Faults: faults,
		MaxInFlight: 1, QueueTimeout: 5 * time.Millisecond,
	})

	// One request occupies the only slot for 300ms; followers can wait at
	// most 5ms and must be shed.
	occupied := make(chan struct{})
	go func() {
		close(occupied)
		g.Get("a/slow")
	}()
	<-occupied
	time.Sleep(20 * time.Millisecond) // let the occupant take its slot
	var shed int
	for i := 0; i < 3; i++ {
		if _, err := g.Get("a/slow"); errors.Is(err, ErrOverloaded) {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed with every slot occupied")
	}
	if got := g.Counters().Shed.Value(); got != uint64(shed) {
		t.Fatalf("shed counter = %d, want %d", got, shed)
	}
}

func TestEntryPeerFailover(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	for i := 0; i < 8; i++ {
		if err := netnode.NewClient(addrs[5]).Insert(fmt.Sprintf("f/%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Entry peer 0 refuses every get; the gateway must fail over to peer 1
	// and, after FailThreshold consecutive failures, stop routing to 0.
	faults := transport.NewFaults().Add(transport.Rule{
		Addr: addrs[0], Kind: 0, Drop: true,
	})
	g := newGateway(t, Config{Peers: addrs[:2], Faults: faults, CacheSize: -1})
	for i := 0; i < 8; i++ {
		if _, err := g.Get(fmt.Sprintf("f/%d", i)); err != nil {
			t.Fatalf("get %d through failing entry set: %v", i, err)
		}
	}
	c := g.Counters()
	if c.FetchErrors.Value() == 0 {
		t.Fatal("no fetch errors recorded while peer 0 dropped everything")
	}
	if c.PeersDown.Value() != 1 {
		t.Fatalf("peersDown = %d, want 1", c.PeersDown.Value())
	}
	if !g.Detector().Down(0) {
		t.Fatal("detector never declared entry peer 0 down")
	}
}

func TestStaleFabricAnswersAreSuppressed(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:2], CacheTTL: 30 * time.Millisecond})

	if err := netnode.NewClient(addrs[0]).Insert("st/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Get("st/f"); err != nil {
		t.Fatal(err)
	}
	// Simulate an acknowledged write the fabric has "lost" (or not yet
	// converged on): the floor rises far past anything the peers hold.
	g.cache.ackUpdate("st/f", []byte("acked"), nil, 999)
	time.Sleep(40 * time.Millisecond) // expire the write-through entry

	res, err := g.Get("st/f")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 999 || !bytes.Equal(res.Data, []byte("acked")) || res.Source != SourceCache {
		t.Fatalf("stale fabric answer leaked: %+v", res)
	}
	if g.Counters().StaleServed.Value() == 0 {
		t.Fatal("StaleServed not counted")
	}

	// With the cache disabled there is no retained copy to bridge the gap:
	// the read fails loudly rather than serving pre-ack data.
	g2 := newGateway(t, Config{Peers: addrs[:2], CacheSize: -1})
	g2.cache.ackUpdate("st/f", nil, nil, 999)
	if _, err := g2.Get("st/f"); !errors.Is(err, ErrStaleRead) {
		t.Fatalf("cacheless stale read err = %v, want ErrStaleRead", err)
	}
}

// TestLongMissingNameKeepsConnection: a get of a missing name close to
// msg.MaxName is refused with an error that quotes the name — longer than
// an error may be on the wire. The refusal must reach the client as a !OK
// answer, cut to length, and the connection must go on serving.
func TestLongMissingNameKeepsConnection(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:3]})
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := netnode.NewClient(addrs[5]).Insert("long/present", []byte("here")); err != nil {
		t.Fatal(err)
	}
	conn, err := netnode.DialConn(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	long := strings.Repeat("n", msg.MaxName-10)
	resp, err := conn.Do(&msg.Request{Kind: msg.KindGet, Name: long})
	if err != nil {
		t.Fatalf("get of a missing %d-byte name: %v, want a refusal", len(long), err)
	}
	if resp.OK || resp.Err == "" || len(resp.Err) > msg.MaxName {
		t.Fatalf("get of a missing %d-byte name: OK %v, %d-byte error", len(long), resp.OK, len(resp.Err))
	}
	res, err := conn.Get("long/present")
	if err != nil || string(res.Data) != "here" {
		t.Fatalf("second request on the same connection: %+v, %v", res, err)
	}
}

// TestServerSpeaksPeerProtocol points an unmodified netnode.Client at the
// gateway's wire listener: inserts, gets, updates, deletes, traced gets
// and stat must all work as they do against a peer.
func TestServerSpeaksPeerProtocol(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:3]})
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cl := netnode.NewClient(srv.Addr())
	if err := cl.Insert("s/f", []byte("one")); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Get("s/f")
	if err != nil || !bytes.Equal(res.Data, []byte("one")) {
		t.Fatalf("get via server = %+v, %v", res, err)
	}
	if g.Counters().Hits.Value() != 1 {
		t.Fatalf("server get missed the cache: hits = %d", g.Counters().Hits.Value())
	}
	if _, err := cl.Update("s/f", []byte("two")); err != nil {
		t.Fatal(err)
	}
	res, err = cl.Get("s/f")
	if err != nil || !bytes.Equal(res.Data, []byte("two")) {
		t.Fatalf("post-update get via server = %+v, %v", res, err)
	}

	// Traced gets bypass the cache so the route is the live one.
	traced, err := cl.GetTraced("s/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Path) == 0 {
		t.Fatal("traced get through the gateway lost its route")
	}

	// Stat reports the gateway itself, not a peer.
	line, err := cl.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "gateway") {
		t.Fatalf("stat line = %q", line)
	}

	if _, err := cl.Delete("s/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("s/f"); !errors.Is(err, netnode.ErrFault) {
		t.Fatalf("post-delete get err = %v", err)
	}
}

// TestRetiredKindsRefusedAtGateway: the gateway interposes no retired wire
// number. The whole-frame placement (kind 4), the sub-request batch (kind
// 10) and the single-holder locate (kind 11) each pass through to a peer
// and come back as its generic unknown-kind answer; the get pipelined
// behind each on the same connection is still served, and no cache entry
// or version floor moves.
func TestRetiredKindsRefusedAtGateway(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:3], CacheTTL: time.Minute})
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	wr, err := g.Insert("f", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() (floors map[string]uint64, cached int) {
		g.cache.mu.Lock()
		defer g.cache.mu.Unlock()
		return maps.Clone(g.cache.floors), g.cache.entries.Len()
	}
	floors, cached := snapshot()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(msg.AppendHello(nil, msg.Epoch)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	retired := []*msg.Request{
		{Kind: msg.Kind(4), Name: "old/placed", Data: []byte("older build"), Version: wr.Version + 10},
		{Kind: msg.Kind(10), Data: []byte{0, 0, 0, 1, 0xFF}},
		{Kind: msg.Kind(11), Name: "f"},
	}
	for i, old := range retired {
		id := uint64(2 * i)
		if err := msg.WriteRequestID(conn, old, id+1); err != nil {
			t.Fatal(err)
		}
		if err := msg.WriteRequestID(conn, &msg.Request{Kind: msg.KindGet, Name: "f"}, id+2); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if i == 0 {
			if epoch, err := msg.ReadHello(br); err != nil || epoch != msg.Epoch {
				t.Fatalf("hello: epoch %d, %v", epoch, err)
			}
		}
		answers := map[uint64]*msg.Response{}
		for range 2 {
			resp, rid, err := msg.ReadResponseID(br)
			if err != nil {
				t.Fatalf("kind %d: %v", old.Kind, err)
			}
			answers[rid] = resp
		}
		want := fmt.Sprintf("netnode: unknown kind kind(%d)", old.Kind)
		if resp := answers[id+1]; resp == nil || resp.OK || resp.Err != want {
			t.Fatalf("kind %d answered %+v, want %q", old.Kind, resp, want)
		}
		if resp := answers[id+2]; resp == nil || !resp.OK || string(resp.Data) != "hello" || resp.Version != wr.Version {
			t.Fatalf("the get pipelined behind kind %d answered %+v", old.Kind, resp)
		}
	}
	if got := g.Counters().Passthrough.Value(); got != uint64(len(retired)) {
		t.Errorf("%d requests passed through, want the %d retired kinds", got, len(retired))
	}
	if gotFloors, gotCached := snapshot(); !maps.Equal(gotFloors, floors) || gotCached != cached {
		t.Errorf("floors %v and %d cache entries after the refusals, want %v and %d", gotFloors, gotCached, floors, cached)
	}
	if res, err := g.Get("f"); err != nil || res.Source != SourceCache || res.Version != wr.Version {
		t.Errorf("get after the refusals: %+v, %v; want the cached v%d", res, err, wr.Version)
	}
}
