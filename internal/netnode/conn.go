package netnode

// Conn is a persistent client connection: unlike Client, which dials per
// operation, a Conn pipelines every request over one TCP stream — the
// shape a real client library would use against a home peer, and what the
// throughput benchmark measures.

import (
	"fmt"
	"time"

	"lesslog/internal/msg"
	"lesslog/internal/transport"
)

// Conn is a persistent connection to one peer. Safe for concurrent use;
// requests are pipelined over the single stream and correlated back by
// request ID, so concurrent callers overlap instead of queueing behind
// each other. Every exchange is bounded by an RPC deadline, so a hung
// peer cannot wedge the caller.
type Conn struct {
	cc *transport.ClientConn
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
	return &Conn{cc: cc}, nil
}

// Close shuts the connection; in-flight exchanges fail.
func (c *Conn) Close() error { return c.cc.Close() }

// Do performs one pipelined request/response exchange under the RPC
// deadline.
func (c *Conn) Do(req *msg.Request) (*msg.Response, error) {
	return c.cc.Do(req)
}

// Get fetches a file over the persistent stream; a refusal reads as it
// does for Client.Get.
func (c *Conn) Get(name string) (GetResult, error) {
	resp, err := c.Do(&msg.Request{Kind: msg.KindGet, Name: name})
	if err != nil {
		return GetResult{}, err
	}
	return getAnswer(name, resp)
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
