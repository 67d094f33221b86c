package main

import (
	"errors"
	"fmt"

	"lesslog/internal/gateway"
	"lesslog/internal/msg"
	"lesslog/internal/netnode"
	"lesslog/internal/routehint"
	"lesslog/internal/stream"
	"lesslog/internal/transport"
)

// An edge is one way into the system. The workload's own edge carries the
// measured window; the traced pass replays the same ops through one edge
// per entry depth (client, gateway, netnode, holder) to split the latency.
type edge interface {
	get(name string) ([]byte, error)
	// write performs an update, insert or delete (data is nil for a delete).
	write(kind int, name string, data []byte) error
}

// A preparer does untimed work before an op's span opens, such as cooling
// the hints or locating the holder for the call that is then timed alone.
type preparer interface {
	prepare(kind int, name string) error
}

// A router counts the locate walks its ops have paid, and a cacher the ops
// that reached the fabric; the traced pass samples both around each call to
// learn which deeper layers a depth's median op passes through.
type router interface{ locates() uint64 }
type cacher interface{ fabricOps() uint64 }

var writeKinds = [opKinds]msg.Kind{
	opUpdate: msg.KindUpdate, opInsert: msg.KindInsert, opDelete: msg.KindDelete,
}

func respErr(resp *msg.Response, err error) error {
	if err != nil {
		return err
	}
	if !resp.OK {
		return errors.New(resp.Err)
	}
	return nil
}

// connEdge is the gateway workloads' edge: the gateway's wire server over
// one persistent netnode.Conn. The request struct is reused, so an op
// allocates nothing on the harness side.
type connEdge struct {
	c   *netnode.Conn
	req msg.Request
}

func (e *connEdge) get(name string) ([]byte, error) {
	e.req = msg.Request{Kind: msg.KindGet, Name: name}
	resp, err := e.c.Do(&e.req)
	if err := respErr(resp, err); err != nil {
		return nil, err
	}
	return resp.Data, nil
}

func (e *connEdge) write(kind int, name string, data []byte) error {
	e.req = msg.Request{Kind: writeKinds[kind], Name: name, Data: data}
	return respErr(e.c.Do(&e.req))
}

// clientEdge is the locate workloads' edge: netnode.Client's own ladder.
type clientEdge struct{ c *netnode.Client }

func (e clientEdge) get(name string) ([]byte, error) {
	res, err := e.c.Get(name)
	return res.Data, err
}

func (e clientEdge) locates() uint64 { return e.c.LocateStats().Locates.Load() }

func (e clientEdge) write(kind int, name string, data []byte) error {
	var err error
	switch kind {
	case opUpdate:
		_, err = e.c.Update(name, data)
	case opInsert:
		err = e.c.Insert(name, data)
	case opDelete:
		_, err = e.c.Delete(name)
	}
	return err
}

// gatewayEdge is the gateway depth: Gateway.Get/Update called in process,
// below the wire server. The gateway caches the slice a write hands it, so
// each write passes its own copy (4 KiB on the workloads that use a gateway).
type gatewayEdge struct{ g *gateway.Gateway }

func (e gatewayEdge) get(name string) ([]byte, error) {
	res, err := e.g.Get(name)
	return res.Data, err
}

func (e gatewayEdge) locates() uint64 { return e.g.Counters().Locates.Value() }

func (e gatewayEdge) fabricOps() uint64 {
	c := e.g.Counters()
	return c.Misses.Value() + c.Updates.Value() + c.Inserts.Value() + c.Deletes.Value()
}

func (e gatewayEdge) write(kind int, name string, data []byte) error {
	var err error
	switch kind {
	case opUpdate:
		_, err = e.g.Update(name, append([]byte(nil), data...))
	case opInsert:
		_, err = e.g.Insert(name, append([]byte(nil), data...))
	case opDelete:
		_, err = e.g.Delete(name)
	}
	return err
}

// netnodeEdge is the netnode depth: a locate client at an entry peer with
// cold hints, so every op pays the locate walk the gateway pays on a miss.
// Entry peers rotate as the gateway's do.
type netnodeEdge struct {
	clients []*netnode.Client
	hints   *routehint.Cache
	next    int
}

func newNetnodeEdge(entries []string, tr *transport.Transport) *netnodeEdge {
	e := &netnodeEdge{hints: routehint.New(0, 0)}
	for _, addr := range entries {
		e.clients = append(e.clients, netnode.NewLocateClientWith(addr, tr, netnode.LocateOptions{Hints: e.hints}))
	}
	return e
}

func (e *netnodeEdge) prepare(kind int, name string) error {
	e.hints.Purge(name)
	e.next = (e.next + 1) % len(e.clients)
	return nil
}

func (e *netnodeEdge) get(name string) ([]byte, error) {
	return clientEdge{e.clients[e.next]}.get(name)
}

func (e *netnodeEdge) write(kind int, name string, data []byte) error {
	return clientEdge{e.clients[e.next]}.write(kind, name, data)
}

// holderEdge is the holder depth: prepare resolves the replica set, then the
// timed call moves the bytes at the holder's own address — Fetcher.Fetch for
// a get, a whole-frame update or Uploader.Put (over one frame) for an update.
// Inserts and deletes have no holder to aim at and enter at peer 0.
type holderEdge struct {
	tr       *transport.Transport
	entry    string
	fetcher  *stream.Fetcher
	uploader *stream.Uploader
	plain    clientEdge
	set      []stream.Source
}

func newHolderEdge(entry string, tr *transport.Transport) *holderEdge {
	return &holderEdge{
		tr: tr, entry: entry,
		fetcher:  stream.New(tr, stream.Config{}),
		uploader: stream.NewUploader(tr, stream.Config{}),
		plain:    clientEdge{netnode.NewClientWith(entry, tr)},
	}
}

func (e *holderEdge) prepare(kind int, name string) error {
	if kind != opGet && kind != opUpdate {
		return nil
	}
	set, err := locateSet(e.tr, e.entry, name)
	e.set = set
	return err
}

// locateSet resolves name's replica set with one locate-set walk from entry.
func locateSet(tr *transport.Transport, entry, name string) ([]stream.Source, error) {
	resp, err := tr.Do(entry, &msg.Request{Kind: msg.KindLocateSet, Name: name})
	if err := respErr(resp, err); err != nil {
		return nil, fmt.Errorf("locate-set %s: %w", name, err)
	}
	hs, err := msg.DecodeHolders(resp.Data)
	if err != nil {
		return nil, fmt.Errorf("locate-set %s: %w", name, err)
	}
	set := make([]stream.Source, len(hs))
	for i, h := range hs {
		set[i] = stream.Source{PID: h.PID, Addr: h.Addr}
	}
	return set, nil
}

func (e *holderEdge) get(name string) ([]byte, error) {
	data, _, err := e.fetcher.Fetch(name, 0, e.set)
	return data, err
}

func (e *holderEdge) write(kind int, name string, data []byte) error {
	if kind != opUpdate {
		return e.plain.write(kind, name, data)
	}
	holder := e.set[0].Addr
	if len(data) > msg.MaxData {
		_, err := e.uploader.Put(holder, name, data, msg.PutUpdate)
		return err
	}
	return respErr(e.tr.Do(holder, &msg.Request{Kind: msg.KindUpdate, Name: name, Data: data}))
}
