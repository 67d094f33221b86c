package transport

import (
	"errors"
	"net"
	"sync"
	"time"

	"lesslog/internal/msg"
)

// Server is a running frame listener: it owns the listening socket, the
// accept loop, the set of open connections and the wait for their
// handlers. Every accepted connection is served by ServeLoop.
type Server struct {
	ln     net.Listener
	addr   string // ln's bound address, formatted once
	handle func(*msg.Request) *msg.Response
	opts   ServeLoopOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // the accept loop and every connection's ServeLoop
}

// Listen binds addr ("127.0.0.1:0" picks a free port) and serves msg frames
// on every connection it accepts: handle and opts are ServeLoop's.
func Listen(addr string, handle func(*msg.Request) *msg.Response, opts ServeLoopOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(ln, handle, opts), nil
}

// serve starts a Server on a listener the caller opened.
func serve(ln net.Listener, handle func(*msg.Request) *msg.Response, opts ServeLoopOptions) *Server {
	s := &Server{ln: ln, addr: ln.Addr().String(), handle: handle, opts: opts, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.addr }

// Accept-error backoff: a failed Accept that is not the listener closing —
// EMFILE, ECONNABORTED — is retried after a pause that doubles from
// acceptBackoffMin to acceptBackoffMax, as net/http does, so a process out
// of descriptors neither spins nor stops listening for good.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// acceptLoop accepts until the listener is closed. Any other Accept error
// is reported through OnProtoError and retried.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if s.opts.OnProtoError != nil {
				s.opts.OnProtoError(err)
			}
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			ServeLoop(conn, s.handle, s.opts)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shut closes the listener and every open connection without waiting for
// the handlers still running; their responses are lost. It is the first
// half of Close, for an owner whose handlers may be blocked on something it
// must shut between the two (netnode.Peer: its outbound transport). Only
// the first call closes anything; later ones return nil.
func (s *Server) Shut() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	open := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range open {
		c.Close()
	}
	return err
}

// Close stops the server: Shut, then every in-flight handler is awaited.
func (s *Server) Close() error {
	err := s.Shut()
	s.wg.Wait()
	return err
}
