package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// announceDial makes this process's dialers announce (and expect) epoch
// for the rest of the test.
func announceDial(t *testing.T, epoch uint32) {
	saved := dialEpoch
	dialEpoch = epoch
	t.Cleanup(func() { dialEpoch = saved })
}

// countingServer is a Listen server that counts its handler's runs and
// hands every protocol error over on errs.
func countingServer(t *testing.T) (srv *Server, handled *atomic.Int64, errs chan error) {
	t.Helper()
	// errs has room for every protocol error one test provokes, so the
	// serve loop never blocks reporting one.
	handled, errs = new(atomic.Int64), make(chan error, 16)
	srv, err := Listen("127.0.0.1:0", func(req *msg.Request) *msg.Response {
		handled.Add(1)
		return echoHandler(req)
	}, ServeLoopOptions{OnProtoError: func(err error) { errs <- err }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, handled, errs
}

// wantEpochError fails unless err is an ErrEpoch naming both epochs.
func wantEpochError(t *testing.T, what string, err error, local, remote uint32) {
	t.Helper()
	if !errors.Is(err, ErrEpoch) || !strings.Contains(err.Error(), fmt.Sprintf("epoch %d", local)) ||
		!strings.Contains(err.Error(), fmt.Sprintf("epoch %d", remote)) {
		t.Errorf("%s: err = %v, want ErrEpoch naming epochs %d and %d", what, err, local, remote)
	}
}

// nextProtoErr waits for the server's next protocol error.
func nextProtoErr(t *testing.T, errs chan error) error {
	t.Helper()
	select {
	case err := <-errs:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("no protocol error reported")
		return nil
	}
}

// TestEpochMismatchRefusedAtConnect: a dialer announcing another epoch is
// refused on both sides before any frame is handled. Its exchange fails
// with ErrEpoch, which is neither retried nor counted as a timeout, and is
// counted as an epoch_refused event; requests pipelined behind the hello
// all fail the same way and reach no handler.
func TestEpochMismatchRefusedAtConnect(t *testing.T) {
	srv, handled, errs := countingServer(t)
	other := uint32(msg.Epoch + 1)
	announceDial(t, other)

	tr := New(Config{Retries: 3, RetryBase: time.Millisecond}, nil)
	defer tr.Close()
	_, err := tr.Do(srv.Addr(), &msg.Request{Kind: msg.KindGet, Name: "f"}) // idempotent: retryable
	wantEpochError(t, "Do", err, other, msg.Epoch)
	c := tr.Counters()
	if c.Retries.Value() != 0 || c.Timeouts.Value() != 0 || c.Reconnects.Value() != 0 || c.EpochRefused.Value() != 1 {
		t.Errorf("counters %s epoch_refused=%d: want no retry, timeout or reconnect and one refusal",
			c, c.EpochRefused.Value())
	}
	wantEpochError(t, "the server's report", nextProtoErr(t, errs), msg.Epoch, other)

	// Seven requests on one stream, written behind the hello before any
	// answer can have come back.
	cc, err := DialMuxConn(srv.Addr(), time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	var wg sync.WaitGroup
	failed := make([]error, 7)
	for i := range failed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, failed[i] = cc.Do(&msg.Request{Kind: msg.KindUpdate, Name: fmt.Sprintf("p%d", i), Data: []byte("x")})
		}()
	}
	wg.Wait()
	for i, err := range failed {
		wantEpochError(t, fmt.Sprintf("pipelined request %d", i), err, other, msg.Epoch)
	}
	wantEpochError(t, "the server's report", nextProtoErr(t, errs), msg.Epoch, other)

	// The same on the wire: one write carries the hello and seven frames;
	// the answer is the server's hello and then the end of the stream.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire := bytes.NewBuffer(msg.AppendHello(nil, other))
	for i := uint64(1); i <= 7; i++ {
		if err := msg.WriteRequestID(wire, &msg.Request{Kind: msg.KindInsert, Name: "raw", Data: []byte("x")}, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if epoch, err := msg.ReadHello(br); err != nil || epoch != msg.Epoch {
		t.Fatalf("server hello: epoch %d, %v", epoch, err)
	}
	conn.Close() // what a refused dialer does; the server stops lingering
	wantEpochError(t, "the server's report", nextProtoErr(t, errs), msg.Epoch, other)

	srv.Close() // every connection's loop has returned
	if n := handled.Load(); n != 0 {
		t.Fatalf("the handler ran %d times across epochs", n)
	}
}

// TestPreEpochPeerRefused: a build from before the hello, in either
// direction, is refused and counted on this build's side, and no frame of
// it is handled or delivered.
func TestPreEpochPeerRefused(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		srv, handled, errs := countingServer(t)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := msg.WriteRequestID(conn, &msg.Request{Kind: msg.KindInsert, Name: "old", Data: []byte("x")}, 1); err != nil {
			t.Fatal(err)
		}
		wantEpochError(t, "the server's report", nextProtoErr(t, errs), msg.Epoch, 0)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || (err != io.EOF && !isReset(err)) {
			t.Errorf("read %d bytes, err %v; want the connection closed with no answer", n, err)
		}
		srv.Close()
		if n := handled.Load(); n != 0 {
			t.Fatalf("the handler ran %d times for a pre-epoch client", n)
		}
	})

	t.Run("listener", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		// Answers the one frame behind the hello, with no hello of its own.
		answered := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				answered <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			if _, err := br.Discard(msg.HelloLen); err != nil {
				answered <- err
				return
			}
			req, id, err := msg.ReadRequestID(br)
			if err == nil {
				err = msg.WriteResponseID(conn, &msg.Response{OK: true, Data: []byte(req.Name)}, id)
			}
			answered <- err
			io.Copy(io.Discard, br) // until the dialer hangs up
		}()
		tr := New(Config{Retries: 3, RetryBase: time.Millisecond}, nil)
		defer tr.Close()
		resp, err := tr.Do(ln.Addr().String(), &msg.Request{Kind: msg.KindGet, Name: "f"})
		if resp != nil {
			t.Errorf("an answer crossed from a pre-epoch listener: %+v", resp)
		}
		wantEpochError(t, "Do", err, msg.Epoch, 0)
		if err := <-answered; err != nil {
			t.Fatalf("stand-in: %v", err)
		}
		c := tr.Counters()
		if c.EpochRefused.Value() != 1 || c.Retries.Value() != 0 || c.Timeouts.Value() != 0 {
			t.Errorf("counters %s epoch_refused=%d: want one refusal, no retry or timeout", c, c.EpochRefused.Value())
		}
	})
}

// TestEpochRefusalRemembered: a transport remembers an address's refusal
// for the epoch. Fifty exchanges inside one backoff window cost one dial
// and one counted refusal, and each fails at once naming both epochs; the
// first exchange after the window dials again. No handler runs.
func TestEpochRefusalRemembered(t *testing.T) {
	var handled, refused atomic.Int64
	srv, err := Listen("127.0.0.1:0", func(req *msg.Request) *msg.Response {
		handled.Add(1)
		return echoHandler(req)
	}, ServeLoopOptions{OnProtoError: func(error) { refused.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	other := uint32(msg.Epoch + 1)
	announceDial(t, other)

	tr := New(Config{Retries: 3, RetryBase: time.Millisecond}, nil)
	defer tr.Close()
	get := &msg.Request{Kind: msg.KindGet, Name: "f"}
	start := time.Now()
	for i := 0; i < 50; i++ {
		_, err := tr.Do(srv.Addr(), get)
		wantEpochError(t, fmt.Sprintf("exchange %d", i), err, other, msg.Epoch)
	}
	if d := time.Since(start); d >= epochBackoff {
		t.Fatalf("50 exchanges took %v, past the %v window they were to fall in", d, epochBackoff)
	}
	c := tr.Counters()
	if c.Dials.Value() != 1 || c.EpochRefused.Value() != 1 {
		t.Fatalf("inside one window: dials=%d epoch_refused=%d, want 1 and 1", c.Dials.Value(), c.EpochRefused.Value())
	}
	time.Sleep(epochBackoff - time.Since(start) + 10*time.Millisecond)
	_, err = tr.Do(srv.Addr(), get)
	wantEpochError(t, "exchange after the window", err, other, msg.Epoch)
	if c.Dials.Value() != 2 || c.EpochRefused.Value() != 2 {
		t.Fatalf("after the window: dials=%d epoch_refused=%d, want 2 and 2", c.Dials.Value(), c.EpochRefused.Value())
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("%d requests reached the handler, want none", n)
	}
	// The server reports each refusal as it makes it.
	for deadline := time.Now().Add(5 * time.Second); refused.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := refused.Load(); n != 2 {
		t.Fatalf("the server refused %d connections, want 2", n)
	}
}
