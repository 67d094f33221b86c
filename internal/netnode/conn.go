package netnode

// Conn is a persistent client connection: unlike Client, which dials per
// operation, a Conn pipelines every request over one TCP stream — the
// shape a real client library would use against a home peer, and what the
// throughput benchmark measures.

import (
	"fmt"
	"time"

	"lesslog/internal/msg"
	"lesslog/internal/stream"
	"lesslog/internal/transport"
)

// Conn is a persistent connection to one peer. Safe for concurrent use;
// requests are pipelined over the single stream and correlated back by
// request ID, so concurrent callers overlap instead of queueing behind
// each other. Every exchange is bounded by an RPC deadline, so a hung
// peer cannot wedge the caller.
type Conn struct {
	cc   *transport.ClientConn
	addr string
	// rest fetches the rest of a body past one frame after a get's head:
	// ranges for the peer or gateway this Conn is connected to ride its
	// stream (Exchange), others the package's default transport.
	rest *stream.Fetcher
}

// DialConn opens a persistent connection to the peer at addr with the
// default dial and RPC deadlines.
func DialConn(addr string) (*Conn, error) {
	return DialConnTimeout(addr, transport.DefaultDialTimeout, transport.DefaultRPCTimeout)
}

// DialConnTimeout opens a persistent connection with explicit deadlines:
// dial bounds connection establishment, rpc bounds each Do exchange
// (0 means no exchange deadline).
func DialConnTimeout(addr string, dial, rpc time.Duration) (*Conn, error) {
	cc, err := transport.DialMuxConn(addr, dial, rpc)
	if err != nil {
		return nil, err
	}
	c := &Conn{cc: cc, addr: addr}
	c.rest = stream.New(connRanges{c}, stream.Config{})
	return c, nil
}

// Close shuts the connection; in-flight exchanges fail.
func (c *Conn) Close() error { return c.cc.Close() }

// Do performs one pipelined request/response exchange under the RPC
// deadline.
func (c *Conn) Do(req *msg.Request) (*msg.Response, error) {
	return c.cc.Do(req)
}

// Get fetches a file over the persistent stream, a body past one frame as
// its head and the rest in ranges; a refusal reads as it does for
// Client.Get.
func (c *Conn) Get(name string) (GetResult, error) {
	return readGet(name, c.rest, func() (msg.Response, string, error) {
		resp, err := c.Do(&msg.Request{Kind: msg.KindGet, Name: name})
		if err != nil {
			return msg.Response{}, "", err
		}
		return *resp, c.addr, nil
	})
}

// connRanges is a Conn as the continuation's stream.Doer.
type connRanges struct{ c *Conn }

// Exchange sends a range to the Conn's own peer over its stream, under its
// RPC deadline, and one to any other holder through the default transport.
func (r connRanges) Exchange(addr string, req msg.Request, rpcTO time.Duration) (msg.Response, error) {
	if addr != r.c.addr {
		return defaultTransport().Exchange(addr, req, rpcTO)
	}
	resp, err := r.c.Do(&req)
	if err != nil {
		return msg.Response{}, err
	}
	return *resp, nil
}

// Insert stores a file over the persistent stream.
func (c *Conn) Insert(name string, data []byte) error {
	resp, err := c.Do(&msg.Request{Kind: msg.KindInsert, Name: name, Data: data})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("netnode: insert %q: %s", name, resp.Err)
	}
	return nil
}
