package gateway

import (
	"encoding/json"
	"net/http"
	"testing"

	"lesslog/internal/msg"
	"lesslog/internal/netnode"
	"lesslog/internal/tracering"
)

// TestGatewayTracedWriteAssemblesEdgeTrace drives a client-traced update
// through the gateway's wire server and expects one contiguous trace:
// the gateway's HopEdge root, the entry peer's HopFanout parented on the
// gateway, and one HopDeliver per replica — edge to holder in one route.
func TestGatewayTracedWriteAssemblesEdgeTrace(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:3]})
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cl := netnode.NewClient(srv.Addr())
	if err := cl.Insert("tw/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	n, path, err := cl.UpdateTraced("tw/f", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("traced update reached %d copies", n)
	}
	if len(path) < 3 {
		t.Fatalf("trace = %v, want edge + fan-out + delivery hops", path)
	}
	if path[0].PID != msg.GatewayPID || path[0].Action != msg.HopEdge || path[0].Parent != msg.NoParent {
		t.Fatalf("trace root = %+v, want HopEdge at the gateway", path[0])
	}
	if path[1].Action != msg.HopFanout || path[1].Parent != msg.GatewayPID {
		t.Fatalf("fan-out hop = %+v, want HopFanout parented on the gateway", path[1])
	}
	delivers := 0
	for _, h := range path {
		if h.Action == msg.HopDeliver {
			delivers++
		}
	}
	if delivers != n {
		t.Fatalf("trace has %d HopDeliver hops for %d updated copies", delivers, n)
	}
	// The gateway keeps its own copy of the trace in the edge ring.
	snap := g.TraceSnapshot()
	if snap.Recorded == 0 || len(snap.Recent) == 0 {
		t.Fatalf("gateway ring after traced write = %+v", snap)
	}
	found := false
	for _, tr := range snap.Recent {
		if tr.Kind == "update" && tr.Name == "tw/f" && len(tr.Hops) == len(path) {
			found = true
		}
	}
	if !found {
		t.Fatalf("edge ring holds no matching update trace: %+v", snap.Recent)
	}
}

// TestGatewayPromotionInvisible pins the edge sampler to 1-in-1: every
// request is promoted to a trace, but clients that did not ask for one
// must never see a route on their responses.
func TestGatewayPromotionInvisible(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:3], TraceSampleEvery: 1})
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	resp, err := netnode.NewClient(srv.Addr()).Do(&msg.Request{Kind: msg.KindInsert, Name: "pi/f", Data: []byte("x")}, false)
	if err != nil || !resp.OK {
		t.Fatalf("insert through gateway: %+v, %v", resp, err)
	}
	if resp.Path != nil {
		t.Fatalf("promoted insert leaked its route to the client: %v", resp.Path)
	}
	got, err := netnode.NewClient(srv.Addr()).Do(&msg.Request{Kind: msg.KindGet, Name: "pi/f"}, false)
	if err != nil || !got.OK {
		t.Fatalf("get through gateway: %+v, %v", got, err)
	}
	if got.Path != nil {
		t.Fatalf("promoted get leaked its route to the client: %v", got.Path)
	}
	snap := g.TraceSnapshot()
	if snap.Recorded < 2 {
		t.Fatalf("edge ring recorded %d traces, want both promoted requests", snap.Recorded)
	}
	// The promoted write went out fully traced; the promoted get stays an
	// edge-only record so it keeps the cache/coalescer path.
	var write, get *tracering.Trace
	for i := range snap.Recent {
		switch snap.Recent[i].Kind {
		case "insert":
			write = &snap.Recent[i]
		case "get":
			get = &snap.Recent[i]
		}
	}
	if write == nil || len(write.Hops) < 2 {
		t.Fatalf("promoted insert trace = %+v, want edge + fabric hops", write)
	}
	if get == nil || len(get.Hops) != 1 || get.Hops[0].PID != msg.GatewayPID {
		t.Fatalf("promoted get trace = %+v, want a single edge hop", get)
	}
}

// TestGatewayTracesEndpoints reads the edge ring back over both surfaces:
// the wire KindTraces and the /traces admin route.
func TestGatewayTracesEndpoints(t *testing.T) {
	addrs := startFabric(t, 4, 16)
	g := newGateway(t, Config{Peers: addrs[:3], TraceSampleEvery: 1})
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cl := netnode.NewClient(srv.Addr())
	if err := cl.Insert("te/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	wire, err := cl.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if wire.Recorded == 0 || len(wire.Recent) == 0 {
		t.Fatalf("wire snapshot = %+v, want the promoted insert", wire)
	}

	adm, err := g.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get("http://" + adm.Addr() + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var admin tracering.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&admin); err != nil {
		t.Fatal(err)
	}
	if admin.Recorded != wire.Recorded || len(admin.Recent) != len(wire.Recent) {
		t.Fatalf("admin snapshot %+v disagrees with wire snapshot %+v", admin, wire)
	}
	// Both surfaces feed the stat snapshot gauges too.
	stats := g.StatSnapshot()
	if stats.TraceRecorded != wire.Recorded {
		t.Fatalf("stat snapshot trace_recorded = %d, ring says %d", stats.TraceRecorded, wire.Recorded)
	}
}
