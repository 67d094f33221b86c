package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lesslog/internal/msg"
)

func echoHandler(req *msg.Request) *msg.Response {
	return &msg.Response{OK: true, Data: []byte(req.Name)}
}

// settleGoroutines waits for the goroutine count to come back to at most
// want — exiting goroutines are counted until they are gone.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClosedTransportRidesEphemeralStream: a closed transport pools
// nothing, and has no path of its own for that. An exchange dials a stream,
// uses it for one ID'd exchange and closes it — concurrent callers included
// — with the accounting of any other dial, and the RPC deadline bounds it
// like any other exchange.
func TestClosedTransportRidesEphemeralStream(t *testing.T) {
	srv := newEchoServer(t, false)
	hung := newEchoServer(t, true)
	baseline := runtime.NumGoroutine()

	tr := New(Config{}, nil)
	tr.Close()
	call := func() {
		resp, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"})
		if err != nil || !resp.OK || string(resp.Data) != "f" {
			t.Errorf("exchange after Close: %+v, %v", resp, err)
		}
	}
	for i := 0; i < 40; i++ {
		call()
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call()
		}()
	}
	wg.Wait()
	if got := srv.Accepted(); got != 50 {
		t.Fatalf("server accepted %d connections, want 50 (one per exchange)", got)
	}
	if c := tr.Counters(); c.Dials.Value() != 50 || c.Reuses.Value() != 0 || c.Reconnects.Value() != 0 {
		t.Fatalf("counters: %s", c)
	}
	if tr.InFlight() != 0 {
		t.Fatalf("in-flight gauge = %d after every exchange returned", tr.InFlight())
	}
	settleGoroutines(t, baseline)

	slow := New(Config{RPCTimeout: 40 * time.Millisecond, Retries: -1}, nil)
	slow.Close()
	start := time.Now()
	_, err := slow.Do(hung.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"})
	if !isTimeout(err) {
		t.Fatalf("exchange with a mute peer: err = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("RPCTimeout did not bound the exchange after Close: %v", elapsed)
	}
	if c := slow.Counters(); c.Timeouts.Value() != 1 || c.Failures.Value() != 1 || c.Dials.Value() != 1 {
		t.Fatalf("counters: %s", c)
	}
	hung.Close() // its connection goroutine is parked reading a stream nobody closes
	settleGoroutines(t, baseline-1)
}

// TestUnIDdFrameRefused: a frame whose length word lacks FrameIDBit — the
// framing peers spoke before pipelining — ends the connection with
// msg.ErrNoFrameID on its header alone, however well-formed what follows and
// however much it claims: nothing is allocated for the claimed length.
func TestUnIDdFrameRefused(t *testing.T) {
	payload, err := msg.AppendRequest(nil, &msg.Request{Kind: msg.KindGet, Name: "file"})
	if err != nil {
		t.Fatal(err)
	}
	protoErrs := make(chan error, 1)
	var handled atomic.Int64
	srv, err := Listen("127.0.0.1:0", func(req *msg.Request) *msg.Response {
		handled.Add(1)
		return echoHandler(req)
	}, ServeLoopOptions{OnProtoError: func(err error) { protoErrs <- err }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for name, frame := range map[string][]byte{
		"well-formed frame behind a 4-byte header": append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...),
		"MaxFrame claimed, no body":                binary.BigEndian.AppendUint32(nil, msg.MaxFrame),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-protoErrs:
			if !errors.Is(err, msg.ErrNoFrameID) {
				t.Errorf("%s: protocol error = %v, want msg.ErrNoFrameID", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no protocol error reported", name)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || (err != io.EOF && !isReset(err)) {
			t.Errorf("%s: read %d bytes, err %v; want the connection closed with no answer", name, n, err)
		}
		conn.Close()
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: %d bytes allocated while refusing it, want nothing sized by the claim (%d)", name, grown, msg.MaxFrame)
		}
		select {
		case err := <-protoErrs:
			t.Errorf("%s: a second protocol error: %v", name, err)
		default:
		}
	}
	if handled.Load() != 0 {
		t.Fatalf("%d un-ID'd requests reached the handler", handled.Load())
	}
	// The server is unharmed: an ID'd exchange still works.
	tr := New(Config{}, nil)
	defer tr.Close()
	if resp, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "ok"}); err != nil || string(resp.Data) != "ok" {
		t.Fatalf("ID'd exchange after the refusals: %+v, %v", resp, err)
	}
}

// TestCorruptFrameStopsPipeline: a frame that does not decode ends the
// connection in order. A request pipelined before it is still handled and
// answered; a write pipelined after it, already sent in the same segment,
// is never handled — the reader decodes before it hands on, so it stops at
// the corrupt frame however many workers are idle.
func TestCorruptFrameStopsPipeline(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var handled []string
	protoErrs := make(chan error, 4)
	srv, err := Listen("127.0.0.1:0", func(req *msg.Request) *msg.Response {
		mu.Lock()
		handled = append(handled, req.Name)
		mu.Unlock()
		if req.Name == "before" {
			<-release
		}
		return &msg.Response{OK: true}
	}, ServeLoopOptions{Workers: 8, OnProtoError: func(err error) { protoErrs <- err }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	segment := bytes.NewBuffer(msg.AppendHello(nil, msg.Epoch))
	if err := msg.WriteRequestID(segment, &msg.Request{Kind: msg.KindGet, Name: "before"}, 1); err != nil {
		t.Fatal(err)
	}
	// An ID'd frame whose one-byte payload is shorter than any request.
	segment.Write(binary.BigEndian.AppendUint32(nil, 1|msg.FrameIDBit))
	segment.Write(binary.BigEndian.AppendUint64(nil, 2))
	segment.WriteByte(byte(msg.KindUpdate))
	if err := msg.WriteRequestID(segment, &msg.Request{Kind: msg.KindUpdate, Name: "after", Data: []byte("v2")}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(segment.Bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-protoErrs:
		if !errors.Is(err, msg.ErrCorrupt) {
			t.Errorf("protocol error = %v, want msg.ErrCorrupt", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no protocol error reported")
	}
	close(release)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := msg.ReadHello(br); err != nil {
		t.Fatalf("server hello: %v", err)
	}
	resp, id, err := msg.ReadResponseID(br)
	if err != nil || id != 1 || !resp.OK {
		t.Fatalf("answer to the request before the corrupt frame: id %d, %+v, %v", id, resp, err)
	}
	if _, id, err := msg.ReadResponseID(br); err == nil {
		t.Errorf("an answer (id %d) after the corrupt frame's", id)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(handled) != 1 || handled[0] != "before" {
		t.Errorf("handled %q, want only the request before the corrupt frame", handled)
	}
	select {
	case err := <-protoErrs:
		t.Errorf("a second protocol error: %v", err)
	default:
	}
}

// isReset reports a connection the other side closed with unread bytes
// still queued, which the kernel answers with RST instead of FIN.
func isReset(err error) bool { return errors.Is(err, syscall.ECONNRESET) }

// flakyListener fails its first Accepts with a transient error before
// passing through to the real listener.
type flakyListener struct {
	net.Listener
	failures atomic.Int64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestServerRetriesAcceptErrors: an Accept error that is not the listener
// closing (EMFILE, ECONNABORTED) is reported and retried after a backoff —
// the server goes on listening — and only net.ErrClosed ends the loop.
func TestServerRetriesAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: ln}
	flaky.failures.Store(2)
	var reported atomic.Int64
	start := time.Now()
	srv := serve(flaky, echoHandler, ServeLoopOptions{OnProtoError: func(error) { reported.Add(1) }})

	tr := New(Config{}, nil)
	defer tr.Close()
	resp, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "after"})
	if err != nil || string(resp.Data) != "after" {
		t.Fatalf("exchange after two failed accepts: %+v, %v", resp, err)
	}
	if got := reported.Load(); got != 2 {
		t.Fatalf("%d accept errors reported, want 2", got)
	}
	if waited := time.Since(start); waited < 3*acceptBackoffMin {
		t.Fatalf("two failed accepts were retried after %v, want the 5 ms + 10 ms backoff", waited)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := reported.Load(); got != 2 {
		t.Fatalf("closing the listener was reported as a protocol error (%d reports)", got)
	}
}

// heldListener hands an accepted connection over only once the test lets it
// through, so a connection can be made to arrive in the middle of a close.
type heldListener struct {
	net.Listener
	accepted chan struct{} // one send per connection taken off the socket
	pass     chan struct{} // one receive before it is returned from Accept
}

func (l *heldListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
		<-l.pass
	}
	return conn, err
}

// TestServerClose: Close awaits the handler in flight, a connection accepted
// while the server closes is shut instead of served, and a second Close
// returns nil.
func TestServerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held := &heldListener{Listener: ln, accepted: make(chan struct{}), pass: make(chan struct{})}
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	srv := serve(held, func(req *msg.Request) *msg.Response {
		close(started)
		<-release
		finished.Store(true)
		return echoHandler(req)
	}, ServeLoopOptions{})

	cc := New(Config{PoolSize: 1, Retries: -1}, nil)
	defer cc.Close()
	go cc.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "parked"})
	<-held.accepted
	held.pass <- struct{}{}
	<-started

	// The second connection is off the socket but not yet in the accept
	// loop's hands when the server shuts: the loop must close it, not serve it.
	late, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	<-held.accepted
	if err := srv.Shut(); err != nil {
		t.Fatalf("shut: %v", err)
	}
	held.pass <- struct{}{}
	late.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := late.Read(make([]byte, 1)); n != 0 || (err != io.EOF && !isReset(err)) {
		t.Fatalf("a connection accepted during the close was left open: read %d bytes, err %v", n, err)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a handler still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler finished")
	}
	if !finished.Load() {
		t.Fatal("Close returned before the in-flight handler did")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// plainWrites is a served connection that counts the plain Write calls
// made on it. A vectored write (net.Buffers) reaches the socket through the
// embedded TCP connection's writev and is not counted.
type plainWrites struct {
	*net.TCPConn
	n atomic.Int64
}

func (c *plainWrites) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.TCPConn.Write(p)
}

// TestLargeAnswerIsOneVectoredWrite: an answer whose payload is past one
// read chunk goes to the socket as one vectored write of head, payload and
// trailer — no plain write, where the write buffer spent three on it (its
// fill, the rest of the payload, the trailer) — and arrives intact, before
// and beside small answers that still go through the buffer.
func TestLargeAnswerIsOneVectoredWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	head := []byte("fetch header")
	body := make([]byte, 1<<20)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var protoErrs atomic.Int64
	served := make(chan *plainWrites, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		pw := &plainWrites{TCPConn: conn.(*net.TCPConn)}
		served <- pw
		ServeLoop(pw, func(req *msg.Request) *msg.Response {
			if req.Name == "big" {
				return &msg.Response{OK: true, Version: 7, Data: head, Tail: body}
			}
			return echoHandler(req)
		}, ServeLoopOptions{OnProtoError: func(error) { protoErrs.Add(1) }})
	}()
	cc := New(Config{PoolSize: 1}, nil)
	get := func(name string) *msg.Response {
		t.Helper()
		resp, err := cc.Do(ln.Addr().String(), &msg.Request{Kind: msg.KindGet, Name: name})
		if err != nil {
			t.Fatalf("get %q: %v", name, err)
		}
		return resp
	}
	if resp := get("small"); string(resp.Data) != "small" {
		t.Fatalf("small answer = %q", resp.Data)
	}
	pw := <-served
	before := pw.n.Load()
	resp := get("big")
	if n := pw.n.Load() - before; n != 0 {
		t.Errorf("the 1 MiB answer took %d plain writes, want 0 (one writev)", n)
	}
	if !resp.OK || resp.Version != 7 || !bytes.Equal(resp.Data, append(append([]byte{}, head...), body...)) {
		t.Fatalf("big answer: OK=%v version=%d, %d bytes, want the head and body intact", resp.OK, resp.Version, len(resp.Data))
	}
	resp.Release()
	before = pw.n.Load()
	if resp := get("after"); string(resp.Data) != "after" {
		t.Fatalf("answer after the big one = %q", resp.Data)
	}
	if n := pw.n.Load() - before; n != 1 {
		t.Errorf("a small answer took %d plain writes, want 1", n)
	}

	// Seven small requests pipelined beside big ones are all answered.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := string(rune('a' + i))
			if i%4 == 0 {
				name = "big"
			}
			resp, err := cc.Do(ln.Addr().String(), &msg.Request{Kind: msg.KindGet, Name: name})
			if err != nil || !resp.OK || (name != "big" && string(resp.Data) != name) ||
				(name == "big" && len(resp.Data) != len(head)+len(body)) {
				t.Errorf("pipelined %q: %v", name, err)
			}
		}()
	}
	wg.Wait()
	cc.Close()
	<-done
	if n := protoErrs.Load(); n != 0 {
		t.Fatalf("%d protocol errors, want none", n)
	}
}
