package transport

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lesslog/internal/msg"
)

// errMuxClosed reports an exchange attempted on (or interrupted by) a
// multiplexed connection that has died.
var errMuxClosed = errors.New("transport: multiplexed connection closed")

// A mux call that outlives RPCTimeout fails with the same deadline-shaped
// timeoutError (faults.go) injected hangs use, so isTimeout — and with it
// the Timeouts counter and the retry loop — treats it exactly like a
// socket deadline.

// mux multiplexes concurrent request/response exchanges over one TCP
// stream: every request carries a fresh ID, and a single reader goroutine
// hands responses back to their callers by the echoed ID, so a slow
// exchange no longer head-of-line-blocks the fast ones sharing the stream.
type mux struct {
	conn net.Conn // set, under mu, before ready closes; nil when the dial failed
	// ready closes once the stream is dialed and its hello written, or its
	// dial failed: an exchange that picked the stream meanwhile waits for it
	// instead of dialing a stream of its own.
	ready chan struct{}

	wmu sync.Mutex // serializes frame writes onto conn

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	dead    bool
	err     error

	// inflight is the number of exchanges currently using this stream;
	// the pool reads it to pick the least-loaded mux.
	inflight atomic.Int64
	// ephemeral marks an overflow stream dialed past the pool cap: used
	// for one exchange and closed on release, never pooled.
	ephemeral bool
	// refused, when non-nil, is told the stream was refused for its epoch,
	// before any exchange on it fails.
	refused func(error)
}

// newMux returns a stream not yet dialed (start). refused (nil: none) is
// told of a refusal for the epoch.
func newMux(refused func(error)) *mux {
	return &mux{pending: map[uint64]*call{}, ready: make(chan struct{}), refused: refused}
}

// start opens the dialed side of conn as m's stream: it writes this side's
// hello, under the dial deadline, starts the reader, which reads the other
// side's before the first response, and wakes the exchanges waiting for
// the stream (ready). Nothing waits for that hello — the first request goes
// out right behind this one — so it adds no round trip. A failed hello
// fails m, and a stream closed while it was dialed closes conn.
func (m *mux) start(conn net.Conn, dialTO time.Duration) error {
	defer close(m.ready)
	conn.SetWriteDeadline(time.Now().Add(dialTO))
	hello := msg.AppendHello(make([]byte, 0, msg.HelloLen), dialEpoch)
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		m.fail(err)
		return err
	}
	m.mu.Lock()
	dead := m.dead
	if !dead {
		m.conn = conn
	}
	m.mu.Unlock()
	if dead {
		conn.Close()
		return errMuxClosed
	}
	go m.readLoop()
	return nil
}

// readLoop is the stream's only reader: it judges the other side's hello,
// then demultiplexes responses until the stream dies, and wakes every
// waiter with the error. A hello of another epoch, or a response where the
// hello belongs, kills the stream with ErrEpoch before any response is
// read. Each response is matched to its call before it is decoded — the
// call's request kind says how (msg.Frame.DecodeResponse) — decoded into
// the loop's own value and handed over as a copy.
func (m *mux) readLoop() {
	br := bufio.NewReaderSize(m.conn, frameReadSize)
	epoch, err := msg.ReadHello(br)
	if err == nil && epoch != dialEpoch {
		err = epochError(dialEpoch, epoch)
		if m.refused != nil {
			m.refused(err)
		}
	}
	if err != nil {
		m.fail(err)
		return
	}
	var resp msg.Response
	for {
		f, err := msg.ReadFrame(br)
		if err != nil {
			m.fail(err)
			return
		}
		c := m.claim(f.ID)
		if c == nil {
			// A response nothing waits for means the stream lost sync;
			// it cannot be trusted for another exchange.
			m.fail(errMuxClosed)
			return
		}
		if err := f.DecodeResponse(&resp, c.kind); err != nil {
			m.fail(err)
			close(c.ch) // claimed, so fail did not wake it
			return
		}
		c.ch <- resp
	}
}

// claim unregisters the call waiting for response id and returns it, nil
// when none is. A claimed call is the reader's to answer: fail no longer
// sees it, and its channel has room for the one response.
func (m *mux) claim(id uint64) *call {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.pending[id]
	delete(m.pending, id)
	return c
}

// fail marks the mux dead, closes the stream and wakes every in-flight
// call with err. Idempotent: only the first error sticks.
func (m *mux) fail(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.err = err
	pending := m.pending
	m.pending = map[uint64]*call{}
	conn := m.conn
	m.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, c := range pending {
		close(c.ch)
	}
}

func (m *mux) close() { m.fail(errMuxClosed) }

// lastErr returns the error the mux died with.
func (m *mux) lastErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.errLocked()
}

// errLocked is lastErr with mu held.
func (m *mux) errLocked() error {
	if m.err != nil {
		return m.err
	}
	return errMuxClosed
}

// wait awaits the end of the stream's dial and returns the error it died
// with, nil while it lives.
func (m *mux) wait() error {
	<-m.ready
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return m.errLocked()
	}
	return nil
}

// call is the per-exchange state of mux.do — the request's kind, the
// channel the reader hands the response over on, by value, and the timer
// that bounds the wait — recycled through callPool so a steady stream of
// exchanges allocates neither. A slot goes back to the pool only after a
// response was received on it: a timed-out or failed exchange leaves its
// channel closed (fail) or about to be sent on (by a reader that claimed
// it), and is dropped for the collector instead.
type call struct {
	kind  msg.Kind          // the request's: how the reader decodes the answer
	ch    chan msg.Response // capacity 1: the reader never blocks on a caller that gave up
	timer *time.Timer       // nil until the slot's first exchange; stopped and drained while pooled
}

var callPool = sync.Pool{New: func() any { return &call{ch: make(chan msg.Response, 1)} }}

// arm starts the slot's timer and returns its channel. go.mod says 1.22, so
// timer channels are the buffered kind and Reset is only correct on a timer
// that is stopped with its channel drained — the state disarm leaves.
func (c *call) arm(d time.Duration) <-chan time.Time {
	if c.timer == nil {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
	return c.timer.C
}

// disarm stops the timer arm started, for an exchange whose wait ended
// before it fired or was seen to: a timer that fired meanwhile has sent on
// its channel (or is about to), and the receive takes that value out.
func (c *call) disarm() {
	if !c.timer.Stop() {
		<-c.timer.C
	}
}

// do performs one exchange: await the stream's dial, register the call,
// write the ID-framed request, await the matched response under timeout. A
// timeout kills the whole mux — the stream has an orphaned response in
// flight and cannot be reused without desynchronizing every later call.
func (m *mux) do(req *msg.Request, timeout time.Duration) (msg.Response, error) {
	<-m.ready
	m.mu.Lock()
	if m.dead {
		err := m.errLocked()
		m.mu.Unlock()
		return msg.Response{}, err
	}
	m.nextID++
	id := m.nextID
	c := callPool.Get().(*call)
	c.kind = req.Kind
	m.pending[id] = c
	m.mu.Unlock()

	m.wmu.Lock()
	m.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := msg.WriteRequestID(m.conn, req, id)
	m.wmu.Unlock()
	if err != nil {
		// The first failure is the stream's: a write that fails because the
		// reader refused the other side's hello reports the refusal.
		m.fail(err)
		return msg.Response{}, m.lastErr()
	}

	select {
	case resp, ok := <-c.ch:
		c.disarm()
		if !ok {
			return msg.Response{}, m.lastErr()
		}
		callPool.Put(c)
		return resp, nil
	case <-c.arm(timeout):
		m.fail(timeoutError{})
		return msg.Response{}, timeoutError{}
	}
}
