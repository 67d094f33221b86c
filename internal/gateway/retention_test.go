package gateway

import (
	"bytes"
	"fmt"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/msg"
	"lesslog/internal/netnode"
	"lesslog/internal/ptree"
	"lesslog/internal/repair"
)

// TestRetentionSweep is the check on the lending rule of small request
// frames (docs/PIPELINE.md "Buffer ownership"): the Data a served handler
// sees is on loan until its response is written, so every place that holds
// the bytes longer must have called msg.Request.Keep. It writes a distinct
// body through every write path of a live 8-peer fabric and a gateway in
// front of it, churns the read-buffer pool with unrelated traffic, then
// reads every copy back from every holder. A retention point that forgot
// Keep serves another request's bytes here — or 0xDB under the race
// detector, where an ended lease is poisoned at once.
func TestRetentionSweep(t *testing.T) {
	const (
		m, b     = 3, 1
		bodySize = 4 << 10
	)
	live := liveness.New(m)
	addrs := make(map[bitops.PID]string)
	var peers []*netnode.Peer
	for i := 0; i < 1<<m; i++ {
		p, err := netnode.Listen(netnode.Config{PID: bitops.PID(i), M: m, B: b})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
		addrs[p.PID()] = p.Addr()
		live.SetLive(p.PID())
	}
	var entry []string
	for _, p := range peers {
		p.SetAddrs(addrs)
		entry = append(entry, p.Addr())
	}
	g := newGateway(t, Config{Peers: entry})
	srv, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	edge := netnode.NewClient(srv.Addr())

	// primaries are the peers §2.2 places name on, one per subtree.
	primaries := func(name string) map[bitops.PID]bool {
		v := ptree.NewView(hashring.Default.Target(name, m), live, b)
		out := map[bitops.PID]bool{}
		for _, h := range v.AppendPrimaries(nil) {
			out[h] = true
		}
		return out
	}
	// pick returns a peer that is (or is not) a primary of name.
	pick := func(name string, primary bool) *netnode.Peer {
		prim := primaries(name)
		for _, p := range peers {
			if prim[p.PID()] == primary {
				return p
			}
		}
		t.Fatalf("no peer with primary=%v for %q", primary, name)
		return nil
	}

	want := map[string][]byte{} // what every copy of a name must read as at the end
	serial := 0
	body := func(n int) []byte {
		serial++
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i*7 + serial*31)
		}
		copy(out, fmt.Sprintf("body#%04d/", serial))
		return out
	}
	// do sends one request to addr and fails the test unless it is accepted.
	do := func(addr string, req *msg.Request) *msg.Response {
		t.Helper()
		resp, err := netnode.NewClient(addr).Do(req, false)
		if err != nil || !resp.OK {
			t.Fatalf("%v %q at %s: err %v resp %+v", req.Kind, req.Name, addr, err, resp)
		}
		return resp
	}
	write := func(addr string, kind msg.Kind, name string, n int) {
		t.Helper()
		data := body(n)
		do(addr, &msg.Request{Kind: kind, Name: name, Data: data})
		want[name] = data
	}

	// Inserts, entering at a peer that holds nothing and at a primary (the
	// local placement goes through a request derived from the served one).
	write(pick("ins/remote", false).Addr(), msg.KindInsert, "ins/remote", bodySize)
	write(pick("ins/local", true).Addr(), msg.KindInsert, "ins/local", bodySize)

	// Updates, initiated at a holder (the broadcast's own first delivery is
	// local) and at a non-holder (every delivery arrives off the wire). The
	// initiator parks the body in its outbox and the holders pull it from
	// there.
	for _, name := range []string{"upd/at-holder", "upd/remote"} {
		write(peers[0].Addr(), msg.KindInsert, name, bodySize)
	}
	write(pick("upd/at-holder", true).Addr(), msg.KindUpdate, "upd/at-holder", bodySize)
	write(pick("upd/remote", false).Addr(), msg.KindUpdate, "upd/remote", bodySize)

	// §6 replicas: make a name hot at one of its primaries, let maintenance
	// place a replica on the children list (an inline placement), and for the
	// second name send an update after it, which reaches the replica as a
	// propagated delivery one level further down the tree.
	replicas := map[string]*netnode.Peer{}
	for _, name := range []string{"hot/placed", "hot/placed-then-updated"} {
		write(peers[0].Addr(), msg.KindInsert, name, bodySize)
		holder := pick(name, true)
		for i := 0; i < 12; i++ {
			do(holder.Addr(), &msg.Request{Kind: msg.KindGet, Flags: msg.FlagLocalOnly, Name: name})
		}
		placed, ok := holder.MaintainOnce(8, 0)
		if !ok || !peers[placed].HasFile(name) {
			t.Fatalf("maintenance at P(%d) placed no replica of %q (placed=%d ok=%v)", holder.PID(), name, placed, ok)
		}
		replicas[name] = peers[placed]
	}
	write(pick("hot/placed-then-updated", false).Addr(), msg.KindUpdate, "hot/placed-then-updated", bodySize)

	// Repair: a copy that exists at only one of its two primaries is pushed
	// to the other by that peer's anti-entropy round.
	{
		name, data := "repair/pushed", body(bodySize)
		holder := pick(name, true)
		holder.SeedLocal(name, data, 7)
		want[name] = data
		if n := holder.RepairOnce(&repair.Sampler{}, nil, 0); n == 0 {
			t.Fatalf("repair round at P(%d) pushed nothing", holder.PID())
		}
	}
	// A bare inline placement, as a leave handoff or a by-hand placement
	// sends it: the body follows the facts in the same lent frame.
	{
		name, data := "placed/direct", body(bodySize)
		facts, err := msg.AppendNotifyReq(nil, &msg.NotifyReq{TotalSize: uint64(len(data)), Body: data})
		if err != nil {
			t.Fatal(err)
		}
		for pid := range primaries(name) {
			do(addrs[pid], &msg.Request{Kind: msg.KindNotify, Name: name, Data: facts, Tail: data, Version: 3})
		}
		want[name] = data
	}

	// Through the gateway's wire front end: the write-through cache keeps
	// the acknowledged bytes, the fabric keeps its own.
	for _, name := range []string{"gw/inserted", "gw/updated"} {
		data := body(bodySize)
		if err := edge.Insert(name, data); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	{
		data := body(bodySize)
		if _, err := edge.Update("gw/updated", data); err != nil {
			t.Fatal(err)
		}
		want["gw/updated"] = data
	}

	// Unrelated traffic, enough to turn the read-buffer pool over many times:
	// every exchange below reads a 4 KiB frame into a pooled buffer at one
	// peer at least, and there are only a handful of buffers in the pool.
	noise := body(bodySize)
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("noise/%02d", i%20)
		kind := msg.KindUpdate
		if i < 20 {
			kind = msg.KindInsert
		}
		noise[len(noise)-1] = byte(i)
		if i%2 == 0 {
			do(peers[i%len(peers)].Addr(), &msg.Request{Kind: kind, Name: name, Data: noise})
		} else {
			do(srv.Addr(), &msg.Request{Kind: kind, Name: name, Data: noise})
		}
	}

	// Every copy, at every peer that has one, reads as what was written.
	for name, data := range want {
		copies := 0
		for _, p := range peers {
			if !p.HasFile(name) {
				continue
			}
			copies++
			resp := do(p.Addr(), &msg.Request{Kind: msg.KindGet, Flags: msg.FlagLocalOnly, Name: name})
			if !bytes.Equal(resp.Data, data) {
				t.Errorf("%q at P(%d): %d bytes starting %q, want %d starting %q — Data stored without Keep",
					name, p.PID(), len(resp.Data), head(resp.Data), len(data), head(data))
			}
		}
		if copies < 1<<b {
			t.Errorf("%q: %d copies in the fabric, want at least %d", name, copies, 1<<b)
		}
		if r := replicas[name]; r != nil && !r.HasFile(name) {
			t.Errorf("%q: the replica on P(%d) is gone", name, r.PID())
		}
	}
	for _, name := range []string{"gw/inserted", "gw/updated"} {
		res, err := g.Get(name)
		if err != nil || res.Source != SourceCache || !bytes.Equal(res.Data, want[name]) {
			t.Errorf("%q from the gateway: source %v, err %v, %d bytes starting %q, want a cache hit starting %q",
				name, res.Source, err, len(res.Data), head(res.Data), head(want[name]))
		}
	}
}

func head(b []byte) []byte { return b[:min(len(b), 10)] }
