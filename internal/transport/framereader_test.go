package transport

import (
	"bufio"
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lesslog/internal/msg"
)

// countingConn counts the reads that brought bytes in.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestFrameReadersHoldSmallFrame: both frame readers — the serve loop's
// and the mux's — take a frame with a 4 KiB payload in with one read once
// its bytes are there. Each frame is written whole with one Write on a
// net.Pipe, which hands a reader at most what one Write carried, so a
// reader whose buffer is smaller than the frame needs a second read. The
// hello rides the first frame's Write, as the serve loop's answer does.
func TestFrameReadersHoldSmallFrame(t *testing.T) {
	const exchanges = 16
	body := make([]byte, 4<<10)

	t.Run("serve", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		counted := &countingConn{Conn: server}
		done := make(chan struct{})
		go func() {
			defer close(done)
			ServeLoop(counted, func(*msg.Request) *msg.Response { return &msg.Response{OK: true} }, ServeLoopOptions{})
			server.Close()
		}()
		br := bufio.NewReader(client)
		for i := uint64(1); i <= exchanges; i++ {
			var frame bytes.Buffer
			if i == 1 {
				frame.Write(msg.AppendHello(nil, msg.Epoch))
			}
			if err := msg.WriteRequestID(&frame, &msg.Request{Kind: msg.KindInsert, Name: "f", Data: body}, i); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Write(frame.Bytes()); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				if epoch, err := msg.ReadHello(br); err != nil || epoch != msg.Epoch {
					t.Fatalf("serve loop's hello: epoch %d, %v", epoch, err)
				}
			}
			if _, _, err := msg.ReadResponseID(br); err != nil {
				t.Fatal(err)
			}
		}
		if got := counted.reads.Load(); got != exchanges {
			t.Errorf("serve loop read %d request frames with %d reads, want one each", exchanges, got)
		}
		client.Close()
		waitClosed(t, done, "serve loop return")
	})

	t.Run("mux", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		go func() {
			br := bufio.NewReader(server)
			if _, err := msg.ReadHello(br); err != nil {
				return
			}
			hello := msg.AppendHello(nil, msg.Epoch)
			for {
				_, id, err := msg.ReadRequestID(br)
				if err != nil {
					return
				}
				frame := bytes.NewBuffer(hello)
				hello = nil
				if msg.WriteResponseID(frame, &msg.Response{OK: true, Data: body}, id) != nil {
					return
				}
				if _, err := server.Write(frame.Bytes()); err != nil {
					return
				}
			}
		}()
		counted := &countingConn{Conn: client}
		m := newMux(nil)
		if err := m.start(counted, time.Second); err != nil {
			t.Fatal(err)
		}
		defer m.close()
		for i := 0; i < exchanges; i++ {
			resp, err := m.do(&msg.Request{Kind: msg.KindGet, Name: "f"}, 5*time.Second)
			if err != nil || len(resp.Data) != len(body) {
				t.Fatalf("exchange %d: %d bytes, %v", i, len(resp.Data), err)
			}
		}
		if got := counted.reads.Load(); got != exchanges {
			t.Errorf("mux read %d response frames with %d reads, want one each", exchanges, got)
		}
	})
}
