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

// ServeLoopOptions tunes ServeLoop, for one connection or for every one a
// Server accepts. The zero value serves with DefaultPipelineWorkers and no
// instrumentation.
type ServeLoopOptions struct {
	// Workers caps concurrently handled pipelined requests on this
	// connection; the reader stalls (TCP backpressure) once the cap is
	// reached. <= 0 selects DefaultPipelineWorkers.
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
// pipelining: a reader goroutine decodes frames, every request is
// dispatched to a bounded worker pool, and a single writer goroutine frames
// the responses back — out of request order when handlers finish out of
// order, each echoing its request's ID. A frame without an ID is a protocol
// error that ends the connection (msg.ErrNoFrameID).
//
// handle must be safe for concurrent use and must return a non-nil
// response. What it is given is lent, not handed over (docs/PIPELINE.md
// "Buffer ownership"): the Data of a request of at most one read chunk
// points into a pooled read buffer that ServeLoop takes back once the
// response has been written — so the response may point into it, and a
// handler that stores the bytes anywhere that outlives the exchange calls
// msg.Request.Keep first. A request read off a larger frame holds that
// frame's buffer (msg.Request.Release), which a handler that has copied the
// payload out may release and ServeLoop never does — nor may the response
// then point into it. ServeLoop returns when the connection dies and every
// accepted request has been handled; the caller owns closing conn.
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
	s := &served{
		conn:   conn,
		handle: handle,
		opts:   opts,
		out:    make(chan outFrame, workers),
		sem:    make(chan struct{}, workers),
	}
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		s.writeLoop()
	}()

	br := bufio.NewReader(conn)
	for {
		req, lease, id, err := msg.ReadRequestLent(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.protoErr(err)
			}
			break
		}
		s.sem <- struct{}{}
		s.handlers.Add(1)
		if opts.Depth != nil {
			opts.Depth.Add(1)
		}
		go s.work(req, lease, id)
	}
	s.handlers.Wait()
	close(s.out)
	writer.Wait()
}

// served is one connection's serve-loop state, shared by its reader, its
// workers and its writer.
type served struct {
	conn     net.Conn
	handle   func(*msg.Request) *msg.Response
	opts     ServeLoopOptions
	out      chan outFrame // handled requests, to the writer
	sem      chan struct{} // worker slots
	handlers sync.WaitGroup
}

// outFrame is one response on its way to the writer, with the lease of the
// request it answers.
type outFrame struct {
	resp  *msg.Response
	id    uint64
	lease msg.Lease
}

func (s *served) protoErr(err error) {
	if s.opts.OnProtoError != nil {
		s.opts.OnProtoError(err)
	}
}

// work handles one request on a goroutine of its own.
func (s *served) work(req *msg.Request, lease msg.Lease, id uint64) {
	defer func() {
		if s.opts.Depth != nil {
			s.opts.Depth.Add(-1)
		}
		<-s.sem
		s.handlers.Done()
	}()
	s.out <- outFrame{resp: s.handle(req), id: id, lease: lease}
}

// writeLoop frames responses onto the connection until out is closed. It
// is also where a request's lease ends: only once the response is encoded
// into the write buffer (or the socket) can nothing point into the
// request's read buffer any more.
func (s *served) writeLoop() {
	bw := bufio.NewWriter(s.conn)
	for f := range s.out {
		err := msg.WriteResponseID(bw, f.resp, f.id)
		f.lease.End()
		if err == nil && len(s.out) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			s.protoErr(err)
			// Unblock the reader; the loop keeps draining so no
			// handler blocks on a send to out.
			s.conn.Close()
		}
	}
}
