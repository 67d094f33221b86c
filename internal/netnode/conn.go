package netnode

// Conn is a persistent client connection: a plain Client over a transport
// of its own that keeps one stream per address, so every request to its
// peer pipelines over one TCP stream — the shape a real client library
// would use against a home peer, and what the throughput benchmark
// measures. Every other client reaches a peer the same way, over the
// streams its transport pools.

import (
	"errors"
	"sync/atomic"

	"lesslog/internal/msg"
	"lesslog/internal/transport"
)

// errConnClosed fails every exchange on a Conn after its Close.
var errConnClosed = errors.New("netnode: connection closed")

// Conn is a persistent connection to one peer: a Client, whose reads,
// writes and the ranges of a body past one frame ride the one stream its
// transport keeps to each address. Safe for concurrent use; requests are
// pipelined over the stream and correlated back by request ID, so
// concurrent callers overlap instead of queueing behind each other. Every
// exchange is bounded by the RPC deadline (transport.DefaultRPCTimeout),
// so a hung peer cannot wedge the caller: a write gets one attempt, and a
// get — idempotent, so retried like any Client's — at most
// 1 + transport.DefaultRetries attempts with their backoff, about 3× the
// deadline in all.
type Conn struct {
	cl     *Client
	closed atomic.Bool
}

// DialConn opens a persistent connection to the peer at addr with the
// default dial and RPC deadlines.
func DialConn(addr string) (*Conn, error) {
	tr := transport.New(transport.Config{PoolSize: 1}, nil)
	if err := tr.Open(addr); err != nil {
		tr.Close()
		return nil, err
	}
	return &Conn{cl: NewClientWith(addr, tr)}, nil
}

// Close shuts the connection's streams; in-flight exchanges fail, and so
// does every later one, with errConnClosed.
func (c *Conn) Close() error {
	c.closed.Store(true)
	return c.cl.tr.Close()
}

// Do performs one pipelined request/response exchange with the peer.
func (c *Conn) Do(req *msg.Request) (*msg.Response, error) {
	if c.closed.Load() {
		return nil, errConnClosed
	}
	return c.cl.Do(req, false)
}

// Get reads name as Client.Get does.
func (c *Conn) Get(name string) (GetResult, error) {
	if c.closed.Load() {
		return GetResult{}, errConnClosed
	}
	return c.cl.Get(name)
}

// Insert writes a new file as Client.Insert does.
func (c *Conn) Insert(name string, data []byte) error {
	if c.closed.Load() {
		return errConnClosed
	}
	return c.cl.Insert(name, data)
}
