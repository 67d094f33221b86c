package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lesslog/internal/msg"
)

// DefaultPipelineWorkers bounds concurrent in-flight requests per served
// connection when the caller does not say otherwise.
const DefaultPipelineWorkers = 8

// frameReadSize is the read buffer of both frame readers, ServeLoop's and
// the mux's: it holds a whole small exchange frame — a 4 KiB payload with
// its headers — so such a frame costs one read(2) once its bytes are there,
// where bufio's 4 KiB default took two.
const frameReadSize = 8 << 10

// refuseLinger bounds how long a connection refused for its epoch is
// drained before it closes (served.hello).
const refuseLinger = time.Second

// ServeLoopOptions tunes ServeLoop, for one connection or for every one a
// Server accepts. The zero value serves with DefaultPipelineWorkers and no
// instrumentation.
type ServeLoopOptions struct {
	// Workers caps concurrently handled pipelined requests on this
	// connection; once that many are in flight nobody reads the next frame
	// (TCP backpressure). <= 0 selects DefaultPipelineWorkers.
	Workers int
	// Depth, when non-nil, is a gauge of in-flight pipelined requests:
	// incremented as a handler starts, decremented as it finishes.
	Depth *atomic.Int64
	// OnProtoError, when non-nil, observes decode and write failures on
	// the connection (a clean EOF is not reported).
	OnProtoError func(error)
	// ServeDelay, when positive, sleeps that long before handling each
	// request. It is a service-time model for benches and fault
	// harnesses: the sleep occupies a worker slot, so a connection with
	// Workers=1 and ServeDelay=S serves at most one request per S — a
	// serial server with bounded capacity — without burning CPU the way
	// real work would.
	ServeDelay time.Duration
}

// ServeLoop serves one accepted connection with per-connection request
// pipelining: the calling goroutine reads the dialer's hello — a dialer of
// another epoch is refused before any frame is read (served.hello) — then
// reads and decodes requests and passes each one to one of at most Workers
// long-lived workers, started as requests arrive and ended with the
// connection. A worker handles one request at a time and writes its
// response itself, under the connection's write lock — out of request
// order when handlers finish out of order, each echoing its request's ID —
// and flushes when no other response is waiting for the lock. A frame without an ID is a protocol error that
// ends the connection (msg.ErrNoFrameID), and so is one that does not
// decode: nothing read after it is handled.
//
// handle must be safe for concurrent use and must return a non-nil
// response. What it is given is lent, not handed over (docs/PIPELINE.md
// "Buffer ownership"): the *msg.Request is one of the connection's
// Workers requests, decoded into again for a later request once its
// response is written, so a handler must not hold it after returning — a
// struct copy (prop := *req) is its own. The Data of a
// request of at most one read chunk points into a pooled read buffer that
// ServeLoop takes back once the response has been written — so the response
// may point into it, and a handler that stores the bytes anywhere that
// outlives the exchange calls msg.Request.Keep first. A request read off a
// larger frame holds a reference to that frame's buffer (msg.Ref), which
// ServeLoop ends with the lease — so the same rule holds: Keep hands a
// holder its own reference — and which a handler that has copied the
// payload out may end early (msg.Request.Release), the response then not
// pointing into it. The response is released once written
// (msg.Response.Release), which ends the reference a handler attached to it
// and that of an answer relayed off the wire, so a handler must not return
// a response another goroutine still reads. A response whose Err is
// longer than msg.MaxName goes out with it cut to that length: an error
// that quotes a long name still reaches the caller, and the connection
// survives. ServeLoop returns when the connection dies and every accepted
// request has been handled; the caller owns closing conn.
func ServeLoop(conn net.Conn, handle func(*msg.Request) *msg.Response, opts ServeLoopOptions) {
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultPipelineWorkers
	}
	if opts.ServeDelay > 0 {
		inner := handle
		handle = func(req *msg.Request) *msg.Response {
			time.Sleep(opts.ServeDelay)
			return inner(req)
		}
	}
	s := &served{conn: conn, handle: handle, opts: opts, bw: bufio.NewWriter(conn),
		jobs: make(chan job), free: make(chan *msg.Request, workers)}
	br := bufio.NewReaderSize(conn, frameReadSize)
	if !s.hello(br) {
		return
	}
	started := 0
	for {
		f, err := msg.ReadFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.protoErr(err)
			}
			break
		}
		// Every started worker busy: start another, with a request of its
		// own to decode into, up to the cap; at the cap the reader waits for
		// a worker to answer and hand its request back.
		if int(s.busy.Add(1)) > started && started < workers {
			started++
			s.free <- new(msg.Request)
			s.workers.Add(1)
			go s.work()
		}
		req := <-s.free
		lease, err := f.DecodeRequest(req)
		if err != nil {
			s.protoErr(err)
			break
		}
		s.jobs <- job{req, lease, f.ID}
	}
	close(s.jobs)
	s.workers.Wait()
}

// served is one connection's state, shared by its reader and its workers.
type served struct {
	conn    net.Conn
	handle  func(*msg.Request) *msg.Response
	opts    ServeLoopOptions
	jobs    chan job          // decoded requests, to an idle worker
	free    chan *msg.Request // requests answered, to decode the next into
	workers sync.WaitGroup
	busy    atomic.Int32 // requests read and not yet answered

	wmu     sync.Mutex // the write lock; guards bw
	bw      *bufio.Writer
	waiting atomic.Int32 // responses waiting for wmu
}

// job is one decoded request with its lease (msg.Frame.DecodeRequest).
type job struct {
	req   *msg.Request
	lease msg.Lease
	id    uint64
}

// hello reads the dialer's hello, which comes before its first frame, and
// reports whether the connection is served. A hello of this side's epoch is
// answered in kind, the answer waiting in the write buffer for the first
// response, so it costs no write of its own. Anything else is refused and
// reported, before a frame is read: a hello of another epoch (ErrEpoch) is
// answered at once, so the dialer learns both epochs, and the connection
// lingers, discarding what the dialer pipelined behind its hello until the
// dialer hangs up (at most refuseLinger), so the answer is not reset under
// it; a frame where the hello belongs — a build from before epochs — is
// ErrEpoch too, and a first word that is neither msg.ErrNoFrameID, both
// closed with no answer.
func (s *served) hello(br *bufio.Reader) bool {
	epoch, err := msg.ReadHello(br)
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.protoErr(err)
		}
		return false
	}
	if epoch != 0 {
		var hello [msg.HelloLen]byte
		s.bw.Write(msg.AppendHello(hello[:0], msg.Epoch))
	}
	if epoch == msg.Epoch {
		return true
	}
	s.protoErr(epochError(msg.Epoch, epoch))
	if epoch != 0 && s.bw.Flush() == nil {
		s.conn.SetReadDeadline(time.Now().Add(refuseLinger))
		io.Copy(io.Discard, br)
	}
	return false
}

func (s *served) protoErr(err error) {
	if s.opts.OnProtoError != nil {
		s.opts.OnProtoError(err)
	}
}

// work is one worker: it answers requests until the reader stops, handing
// each request back to the reader once its lease has ended. A written
// response is released: the reference to the frame buffer its Data or Tail
// points into — a stored copy's the handler attached, or a relayed
// answer's own — ends as soon as the bytes are on their way.
func (s *served) work() {
	defer s.workers.Done()
	for j := range s.jobs {
		if s.opts.Depth != nil {
			s.opts.Depth.Add(1)
		}
		resp := s.handle(j.req)
		if s.opts.Depth != nil {
			s.opts.Depth.Add(-1)
		}
		s.write(resp, j)
		resp.Release()
		s.free <- j.req
	}
}

// write frames j's response under the write lock. It is also where the
// request's lease ends: once the response is encoded into the write buffer
// (or the socket) nothing points into the request or its read buffer any
// more. A failed write closes the connection, which stops the reader — so
// an over-long Err is cut here instead; the handler's own response is left
// as it was, and the worker releases it. A response whose payload is
// written from where it lives (msg.Vectored) goes to the socket itself,
// behind whatever the buffer holds, as one writev of head, payload and
// trailer: through the buffer it would cost three writes (the buffer's
// fill, the rest of the payload, the trailer).
func (s *served) write(resp *msg.Response, j job) {
	if len(resp.Err) > msg.MaxName {
		cut := *resp // the handler's response may be shared
		cut.Err = cut.Err[:msg.MaxName]
		resp = &cut
	}
	s.waiting.Add(1)
	s.wmu.Lock()
	s.waiting.Add(-1)
	var err error
	if msg.Vectored(len(resp.Data) + len(resp.Tail)) {
		if err = s.bw.Flush(); err == nil {
			err = msg.WriteResponseID(s.conn, resp, j.id)
		}
	} else {
		err = msg.WriteResponseID(s.bw, resp, j.id)
	}
	j.lease.End()
	// Idle before the flush, which is what a client with one request in
	// flight waits for: its next request finds this worker, not a new one.
	s.busy.Add(-1)
	if err == nil && s.waiting.Load() == 0 {
		err = s.bw.Flush()
	}
	s.wmu.Unlock()
	if err != nil {
		s.protoErr(err)
		s.conn.Close()
	}
}
