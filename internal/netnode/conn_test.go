package netnode

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/hashring"
	"lesslog/internal/msg"
)

func TestConnPipelinesRequests(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	conn, err := DialConn(peers[8].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Insert("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, err := conn.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, []byte("1")) || res.ServedBy != 4 {
			t.Fatalf("get %d = %+v", i, res)
		}
	}
	if _, err := conn.Get("missing"); !errors.Is(err, ErrFault) {
		t.Fatalf("fault not surfaced: %v", err)
	}
	// The peer served everything over one accepted connection.
	if got := peers[8].Stats().Requests.Load(); got < 52 {
		t.Fatalf("requests = %d", got)
	}
}

func TestConnConcurrentUse(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), nil)
	conn, err := DialConn(peers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 8; i++ {
		if err := conn.Insert(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			for i := 0; i < 25; i++ {
				if _, err := conn.Get(fmt.Sprintf("k%d", (w+i)%8)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConnClosedPeer(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	conn, err := DialConn(peers[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	peers[1].Close()
	if _, err := conn.Get("x"); err == nil {
		t.Fatal("request over a dead peer's connection succeeded")
	}
	conn.Close()
}

// TestConnFailsAfterClose: every exchange on a closed Conn fails with
// errConnClosed and dials nothing, although its peer is alive and a closed
// transport would still serve exchanges on one-off streams.
func TestConnFailsAfterClose(t *testing.T) {
	peers := startSystem(t, 3, 0, allPIDs(8), nil)
	conn, err := DialConn(peers[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Insert("x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	dials := conn.cl.tr.Counters().Dials.Value()
	if _, err := conn.Get("x"); !errors.Is(err, errConnClosed) {
		t.Errorf("get after Close: %v, want errConnClosed", err)
	}
	if err := conn.Insert("y", []byte("v")); !errors.Is(err, errConnClosed) {
		t.Errorf("insert after Close: %v, want errConnClosed", err)
	}
	if _, err := conn.Do(&msg.Request{Kind: msg.KindGet, Name: "x"}); !errors.Is(err, errConnClosed) {
		t.Errorf("exchange after Close: %v, want errConnClosed", err)
	}
	if n := conn.cl.tr.Counters().Dials.Value() - dials; n != 0 {
		t.Errorf("a closed Conn dialed %d streams", n)
	}
	for pid, p := range peers {
		if p.HasFile("y") {
			t.Errorf("an insert after Close was stored at P(%d)", pid)
		}
	}
}

// TestForwardFailureSelfHeals injects a mid-path failure without a
// registration: the forwarding peer's failure detector must flip the dead
// hop's liveness bit and the very same get must succeed through the
// recomputed route — no explicit ReportFailure needed.
func TestForwardFailureSelfHeals(t *testing.T) {
	peers := startSystem(t, 4, 0, allPIDs(16), hashring.Fixed(4))
	if err := NewClient(peers[3].Addr()).Insert("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Kill P(0), the middle hop of P(8) -> P(0) -> P(4), silently.
	peers[0].Close()
	res, err := NewClient(peers[8].Addr()).Get("f")
	if err != nil {
		t.Fatalf("get through a crashed hop did not self-heal: %v", err)
	}
	if res.ServedBy != 4 {
		t.Fatalf("served by P(%d), want P(4)", res.ServedBy)
	}
	if !peers[8].Detector().Down(0) {
		t.Fatal("failure detector did not declare the crashed hop down")
	}
	if peers[8].Stats().PeersDown.Load() == 0 {
		t.Fatal("peers-down counter not advanced")
	}
}

func BenchmarkConnGetThroughput(b *testing.B) {
	var peers []*Peer
	addrs := map[bitops.PID]string{}
	for pid := bitops.PID(0); pid < 16; pid++ {
		p, err := Listen(Config{PID: pid, M: 4, Hasher: hashring.Fixed(4)})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		peers = append(peers, p)
		addrs[pid] = p.Addr()
	}
	for _, p := range peers {
		p.SetAddrs(addrs)
	}
	conn, err := DialConn(addrs[4])
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Insert("bench", []byte("payload")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Get("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
