package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// pipelinedServer is a Server on a loopback port, so tests exercise the full
// pipelined path: requests passed to the connection's workers, responses
// written out of order by the workers that handled them.
func pipelinedServer(t testing.TB, handle func(*msg.Request) *msg.Response, opts ServeLoopOptions) (addr string) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", handle, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestMuxOverlapsSlowExchange pins the head-of-line fix: with one pooled
// stream (PoolSize 1) a deliberately slow exchange must not delay the fast
// exchanges pipelined behind it.
func TestMuxOverlapsSlowExchange(t *testing.T) {
	block := make(chan struct{})
	var fastDone atomic.Int64
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		if req.Name == "slow" {
			<-block
		}
		return &msg.Response{OK: true, Data: []byte(req.Name)}
	}, ServeLoopOptions{Workers: 8})

	tr := New(Config{PoolSize: 1, Retries: -1}, nil)
	defer tr.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	slowStarted := make(chan struct{})
	go func() {
		defer wg.Done()
		close(slowStarted)
		resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "slow"})
		if err != nil || !resp.OK {
			t.Errorf("slow exchange: %v", err)
		}
	}()
	<-slowStarted

	// The fast exchanges share the single pooled stream with the parked
	// slow one; all must complete while it is still blocked.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 16; i++ {
			resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "fast"})
			if err != nil || !resp.OK || string(resp.Data) != "fast" {
				t.Errorf("fast exchange %d: %v %+v", i, err, resp)
				return
			}
			fastDone.Add(1)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("fast exchanges stuck behind the slow one: %d/16 done", fastDone.Load())
	}
	close(block)
	wg.Wait()
	if got := fastDone.Load(); got != 16 {
		t.Fatalf("fast exchanges done = %d, want 16", got)
	}
}

// TestMuxConcurrentCallersOneStream hammers one pooled stream from many
// goroutines and checks every response lands on its own request. The
// callers start together with no stream to the address: they dial one, the
// others waiting for it, not one each.
func TestMuxConcurrentCallersOneStream(t *testing.T) {
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		return &msg.Response{OK: true, Data: []byte(req.Name)}
	}, ServeLoopOptions{})

	tr := New(Config{PoolSize: 1}, nil)
	defer tr.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := string(rune('a'+g)) + "-file"
				resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: name})
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				if string(resp.Data) != name {
					t.Errorf("goroutine %d got %q, want %q — responses crossed", g, resp.Data, name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c := tr.Counters(); c.Dials.Value() != 1 {
		t.Fatalf("8 concurrent callers dialed %d streams, want 1: %s", c.Dials.Value(), c)
	}
}

// TestServeLoopDepthGauge checks the pipeline-depth gauge rises while
// handlers are parked and settles back to zero.
func TestServeLoopDepthGauge(t *testing.T) {
	var depth atomic.Int64
	block := make(chan struct{})
	addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
		<-block
		return &msg.Response{OK: true}
	}, ServeLoopOptions{Workers: 4, Depth: &depth})

	tr := New(Config{PoolSize: 1}, nil)
	defer tr.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "f"}); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for depth.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("depth gauge = %d, want 4", depth.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	for depth.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("depth gauge did not settle: %d", depth.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeDelayModelsSerialServer checks the service-time model: with
// one worker and a ServeDelay of S, n pipelined requests take at least
// n*S (a serial server of capacity 1/S), while with enough workers the
// same delays overlap and the batch finishes in a fraction of that.
func TestServeDelayModelsSerialServer(t *testing.T) {
	const delay = 30 * time.Millisecond
	run := func(workers int) time.Duration {
		addr := pipelinedServer(t, func(req *msg.Request) *msg.Response {
			return &msg.Response{OK: true}
		}, ServeLoopOptions{Workers: workers, ServeDelay: delay})
		tr := New(Config{PoolSize: 1}, nil)
		defer tr.Close()
		// Establish the single pooled stream before the concurrent batch:
		// cold concurrent callers would each dial their own connection.
		if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "warm"}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "f"}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	if serial := run(1); serial < 4*delay {
		t.Fatalf("serial server finished 4 requests in %v, want >= %v", serial, 4*delay)
	}
	if wide := run(4); wide >= 4*delay {
		t.Fatalf("4 workers took %v for 4 requests, want the delays to overlap (< %v)", wide, 4*delay)
	}
}

// serveOne accepts one connection on a loopback port and serves it with
// ServeLoop, through wrap when that is non-nil. returned is closed once
// ServeLoop has returned and the connection is closed.
func serveOne(t *testing.T, handle func(*msg.Request) *msg.Response, opts ServeLoopOptions, wrap func(net.Conn) net.Conn) (addr string, returned <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		if wrap != nil {
			conn = wrap(conn)
		}
		ServeLoop(conn, handle, opts)
		conn.Close()
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), done
}

// waitClosed fails the test unless ch is closed within a few seconds.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not happen", what)
	}
}

// TestServeLoopBoundsWorkers: with Workers 3 and five requests pipelined on
// one stream, three are handled at once and the other two wait until a
// handler is released; each request then gets its own answer, and once the
// stream closes ServeLoop returns with no worker left behind.
func TestServeLoopBoundsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var depth, entered atomic.Int64
	release := make(chan struct{})
	addr, returned := serveOne(t, func(req *msg.Request) *msg.Response {
		if req.Name != "warm" {
			entered.Add(1)
			<-release
		}
		return &msg.Response{OK: true, Data: []byte(req.Name)}
	}, ServeLoopOptions{Workers: 3, Depth: &depth}, nil)

	tr := New(Config{PoolSize: 1, Retries: -1}, nil)
	if _, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: "warm"}); err != nil {
		t.Fatal(err) // one stream, dialed before the batch
	}
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("r%d", i)
			resp, err := tr.Do(addr, &msg.Request{Kind: msg.KindGet, Name: name})
			if err != nil || string(resp.Data) != name {
				t.Errorf("%s answered %+v, %v", name, resp, err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for depth.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("depth gauge = %d, want 3", depth.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for a fourth handler to start
	if d, n := depth.Load(), entered.Load(); d != 3 || n != 3 {
		t.Fatalf("depth gauge = %d, handlers entered = %d with every worker parked; want 3 and 3", d, n)
	}
	release <- struct{}{}
	for entered.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("no waiting request taken up after one release")
		}
		time.Sleep(time.Millisecond)
	}
	if d := depth.Load(); d != 3 {
		t.Fatalf("depth gauge = %d after one release, want 3", d)
	}
	close(release)
	wg.Wait()
	tr.Close()
	waitClosed(t, returned, "ServeLoop returning after the stream closed")
	settleGoroutines(t, baseline)
}

// failWrites is a connection whose writes fail.
type failWrites struct{ net.Conn }

func (failWrites) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestServeLoopEndsWithParkedHandler: a connection that dies while a handler
// is parked — the client gone, or the answer failing to write on a stream
// the client keeps open — ends ServeLoop once that handler returns, and no
// worker outlives it.
func TestServeLoopEndsWithParkedHandler(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(net.Conn) net.Conn
	}{
		{"client closes", nil},
		{"write fails", func(c net.Conn) net.Conn { return failWrites{c} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			parked, release := make(chan struct{}), make(chan struct{})
			protoErrs := make(chan error, 4)
			addr, returned := serveOne(t, func(req *msg.Request) *msg.Response {
				close(parked)
				<-release
				return &msg.Response{OK: true}
			}, ServeLoopOptions{OnProtoError: func(err error) { protoErrs <- err }}, tc.wrap)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(msg.AppendHello(nil, msg.Epoch)); err != nil {
				t.Fatal(err)
			}
			if err := msg.WriteRequestID(conn, &msg.Request{Kind: msg.KindGet, Name: "f"}, 1); err != nil {
				t.Fatal(err)
			}
			waitClosed(t, parked, "the handler starting")
			if tc.wrap == nil {
				conn.Close()
			}
			close(release)
			waitClosed(t, returned, "ServeLoop returning")
			if tc.wrap != nil {
				if err := <-protoErrs; err == nil || err.Error() != "injected write failure" {
					t.Fatalf("protocol error = %v, want the write failure", err)
				}
			}
			settleGoroutines(t, baseline)
		})
	}
}
