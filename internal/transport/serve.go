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

// ServeLoopOptions tunes ServeLoop. The zero value serves with
// DefaultPipelineWorkers and no instrumentation.
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
// pipelining: a reader goroutine decodes frames, pipelined (ID-carrying)
// requests are dispatched to a bounded worker pool, and a single writer
// goroutine frames the responses back — out of request order when handlers
// finish out of order, each echoing its request's ID. Legacy frames (no
// ID) are handled inline on the reader, preserving the strict FIFO
// response order a pre-pipelining client relies on.
//
// handle must be safe for concurrent use and must return a non-nil
// response. It owns the request it is given: one read off a large frame
// holds that frame's buffer (msg.Request.Release), which a handler that has
// copied the payload out may release and ServeLoop never does — nor may the
// response then point into it. ServeLoop returns when the connection dies
// and every accepted request has been handled; the caller owns closing conn.
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
	protoErr := func(err error) {
		if opts.OnProtoError != nil {
			opts.OnProtoError(err)
		}
	}

	type outFrame struct {
		resp  *msg.Response
		id    uint64
		hasID bool
	}
	out := make(chan outFrame, workers)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		bw := bufio.NewWriter(conn)
		for f := range out {
			var err error
			if f.hasID {
				err = msg.WriteResponseID(bw, f.resp, f.id)
			} else {
				err = msg.WriteResponse(bw, f.resp)
			}
			if err == nil && len(out) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				protoErr(err)
				// Unblock the reader; the loop keeps draining so no
				// handler blocks on a send to out.
				conn.Close()
			}
		}
	}()

	br := bufio.NewReader(conn)
	sem := make(chan struct{}, workers)
	var handlers sync.WaitGroup
	for {
		req, id, hasID, err := msg.ReadRequestID(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				protoErr(err)
			}
			break
		}
		if !hasID {
			out <- outFrame{resp: handle(req)}
			continue
		}
		sem <- struct{}{}
		handlers.Add(1)
		if opts.Depth != nil {
			opts.Depth.Add(1)
		}
		go func(req *msg.Request, id uint64) {
			defer func() {
				if opts.Depth != nil {
					opts.Depth.Add(-1)
				}
				<-sem
				handlers.Done()
			}()
			out <- outFrame{resp: handle(req), id: id, hasID: true}
		}(req, id)
	}
	handlers.Wait()
	close(out)
	writer.Wait()
}
