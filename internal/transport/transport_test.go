package transport

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// echoServer speaks the msg protocol: every request is answered OK with the
// request name echoed in Data. mute makes it accept but never answer — the
// hung-peer shape deadlines must bound.
type echoServer struct {
	ln   net.Listener
	mute bool

	mu       sync.Mutex
	accepted int
	open     map[net.Conn]struct{}
	wg       sync.WaitGroup
}

func newEchoServer(t testing.TB, mute bool) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln, mute: mute, open: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(s.Close)
	return s
}

func (s *echoServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.accepted++
		s.open[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.open, conn)
				s.mu.Unlock()
			}()
			br, err := handshake(conn)
			if err != nil {
				return
			}
			for {
				req, id, err := msg.ReadRequestID(br)
				if err != nil {
					return
				}
				if s.mute {
					continue // swallow the request: the caller's deadline must fire
				}
				resp := &msg.Response{OK: true, Data: []byte(req.Name)}
				if err := msg.WriteResponseID(conn, resp, id); err != nil {
					return
				}
			}
		}()
	}
}

// handshake is a raw stand-in's half of the hello: it reads the dialer's
// and answers with this build's, and returns the reader frames follow on.
func handshake(conn net.Conn) (*bufio.Reader, error) {
	br := bufio.NewReader(conn)
	if _, err := msg.ReadHello(br); err != nil {
		return nil, err
	}
	_, err := conn.Write(msg.AppendHello(nil, msg.Epoch))
	return br, err
}

func (s *echoServer) Accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted
}

func (s *echoServer) Addr() string { return s.ln.Addr().String() }

func (s *echoServer) Close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.open {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func TestExchangeAndPoolReuse(t *testing.T) {
	srv := newEchoServer(t, false)
	tr := New(Config{PoolSize: 2}, nil)
	defer tr.Close()
	for i := 0; i < 20; i++ {
		resp, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"})
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if !resp.OK || string(resp.Data) != "f" {
			t.Fatalf("exchange %d: %+v", i, resp)
		}
	}
	if got := srv.Accepted(); got != 1 {
		t.Fatalf("server accepted %d connections, want 1 (pooled)", got)
	}
	c := tr.Counters()
	if c.Dials.Value() != 1 || c.Reuses.Value() != 19 {
		t.Fatalf("counters: %s", c)
	}
}

// TestNonPositivePoolSizeSelectsDefault: there is no unpooled mode — a
// PoolSize of 0 or below selects the default pool, whose one stream serves
// every sequential exchange.
func TestNonPositivePoolSizeSelectsDefault(t *testing.T) {
	srv := newEchoServer(t, false)
	for _, size := range []int{0, -1} {
		tr := New(Config{PoolSize: size}, nil)
		if got := tr.Config().PoolSize; got != DefaultPoolSize {
			t.Fatalf("PoolSize %d resolved to %d, want %d", size, got, DefaultPoolSize)
		}
		for i := 0; i < 5; i++ {
			if _, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"}); err != nil {
				t.Fatal(err)
			}
		}
		tr.Close()
	}
	if got := srv.Accepted(); got != 2 {
		t.Fatalf("server accepted %d connections, want 2 (one per transport)", got)
	}
}

func TestDeadlineBoundsHungPeer(t *testing.T) {
	srv := newEchoServer(t, true)
	tr := New(Config{RPCTimeout: 40 * time.Millisecond, Retries: -1}, nil)
	defer tr.Close()
	start := time.Now()
	_, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exchange with a mute peer succeeded")
	}
	if !isTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the exchange: %v", elapsed)
	}
	if tr.Counters().Timeouts.Value() == 0 {
		t.Fatal("timeout not counted")
	}
}

func TestDialFailureIsBounded(t *testing.T) {
	// A listener that is closed immediately: dials are refused, not hung.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	tr := New(Config{DialTimeout: 100 * time.Millisecond, Retries: -1}, nil)
	defer tr.Close()
	if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet}); err == nil {
		t.Fatal("exchange with a closed listener succeeded")
	}
	if tr.Counters().Failures.Value() != 1 {
		t.Fatalf("counters: %s", tr.Counters())
	}
}

func TestRetryHealsTransientFault(t *testing.T) {
	srv := newEchoServer(t, false)
	faults := NewFaults().Add(Rule{Addr: srv.Addr(), Drop: true, Times: 2})
	tr := New(Config{Retries: 2, RetryBase: time.Millisecond}, faults)
	defer tr.Close()
	resp, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"})
	if err != nil || !resp.OK {
		t.Fatalf("retries did not heal the transient fault: %v", err)
	}
	if got := tr.Counters().Retries.Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

func TestMutationsAreNotRetried(t *testing.T) {
	srv := newEchoServer(t, false)
	faults := NewFaults().Add(Rule{Addr: srv.Addr(), Drop: true, Times: 1})
	tr := New(Config{Retries: 3, RetryBase: time.Millisecond}, faults)
	defer tr.Close()
	if _, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindUpdate, Name: "f"}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected fault (no retry for mutations)", err)
	}
	if got := tr.Counters().Retries.Value(); got != 0 {
		t.Fatalf("a mutation was retried %d times", got)
	}
}

func TestStalePooledConnectionReconnects(t *testing.T) {
	srv := newEchoServer(t, false)
	tr := New(Config{}, nil)
	defer tr.Close()
	if _, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"}); err != nil {
		t.Fatal(err)
	}
	// The server restarts on the same address: the parked stream is dead,
	// but the next exchange must transparently redial.
	addr := srv.Addr()
	srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := &echoServer{ln: ln, open: map[net.Conn]struct{}{}}
	srv2.wg.Add(1)
	go srv2.acceptLoop()
	defer srv2.Close()

	resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "g"})
	if err != nil || !resp.OK {
		t.Fatalf("exchange over stale pooled conn: %v", err)
	}
	if got := tr.Counters().Reconnects.Value(); got != 1 {
		t.Fatalf("reconnects = %d, want 1", got)
	}
}

func TestFaultDelaySlowsButSucceeds(t *testing.T) {
	srv := newEchoServer(t, false)
	faults := NewFaults().Add(Rule{Addr: srv.Addr(), Delay: 20 * time.Millisecond, Times: 1})
	tr := New(Config{}, faults)
	defer tr.Close()
	start := time.Now()
	resp, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"})
	if err != nil || !resp.OK {
		t.Fatal(err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("delay rule did not delay")
	}
}

func TestFaultRuleBudgetExpires(t *testing.T) {
	srv := newEchoServer(t, false)
	faults := NewFaults().Add(Rule{Addr: srv.Addr(), Drop: true, Times: 3})
	tr := New(Config{Retries: -1}, faults)
	defer tr.Close()
	fails := 0
	for i := 0; i < 5; i++ {
		if _, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet}); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("rule fired %d times, want exactly 3", fails)
	}
}

func TestDetectorFlipsOnceAndRecovers(t *testing.T) {
	var downs, ups []uint32
	d := NewDetector(3, func(id uint32) { downs = append(downs, id) },
		func(id uint32) { ups = append(ups, id) })
	d.Fail(7)
	d.Fail(7)
	if d.Down(7) {
		t.Fatal("down before threshold")
	}
	d.Fail(7)
	d.Fail(7) // past threshold: no second callback
	if !d.Down(7) || len(downs) != 1 || downs[0] != 7 {
		t.Fatalf("downs = %v", downs)
	}
	d.Ok(7)
	if d.Down(7) || len(ups) != 1 || ups[0] != 7 {
		t.Fatalf("ups = %v", ups)
	}
	// A success resets the streak: two more failures stay below threshold.
	d.Fail(7)
	d.Fail(7)
	if d.Down(7) || len(downs) != 1 {
		t.Fatal("failure streak not reset by success")
	}
	d.Fail(7)
	if !d.Down(7) || d.DownCount() != 1 {
		t.Fatal("second down episode not detected")
	}
	d.Reset(7)
	if d.Down(7) || len(ups) != 1 {
		t.Fatal("Reset must clear state without callbacks")
	}
}

func TestBackoffDeterministic(t *testing.T) {
	a := New(Config{Seed: 42}, nil)
	b := New(Config{Seed: 42}, nil)
	c := New(Config{Seed: 43}, nil)
	var sa, sb, sc []time.Duration
	for i := 1; i <= 5; i++ {
		sa = append(sa, a.backoff(i))
		sb = append(sb, b.backoff(i))
		sc = append(sc, c.backoff(i))
	}
	differ := false
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed diverged: %v vs %v", sa, sb)
		}
		if sa[i] != sc[i] {
			differ = true
		}
		if lo, hi := a.cfg.RetryBase/2, a.cfg.RetryBase*64; sa[i] < lo || sa[i] > hi {
			t.Fatalf("backoff %d out of range: %v", i, sa[i])
		}
	}
	if !differ {
		t.Fatal("different seeds produced identical jitter")
	}
}

// Pooled exchanges vs dial-per-call on the same echo server: a closed
// transport pools nothing, so each of its exchanges dials a stream.

func benchmarkDo(b *testing.B, pooled bool) {
	srv := newEchoServer(b, false)
	tr := New(Config{}, nil)
	defer tr.Close()
	if !pooled {
		tr.Close()
	}
	req := &msg.Request{Kind: msg.KindGet, Name: "bench"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Do(srv.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportPooled(b *testing.B)      { benchmarkDo(b, true) }
func BenchmarkTransportDialPerCall(b *testing.B) { benchmarkDo(b, false) }
