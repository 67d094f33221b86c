package gateway

// The gateway's wire front end: it speaks the same internal/msg framing
// the peers speak, so any existing client (netnode.Client, netnode.Conn,
// `lesslogd -connect`) points at a gateway instead of a peer and gets the
// edge behaviors transparently. Gets go through the cache and coalescer,
// a body past one frame answered with its head and its ranges passed on to
// a holder; writes pass through with floor bookkeeping; KindStat reports
// the gateway's own status; everything else forwards — a retired kind
// included, so the client gets the peer's unknown-kind answer.
// Pipelined frames on one connection are served concurrently, so a client
// that wants many names keeps many gets in flight.

import (
	"encoding/json"
	"fmt"
	"time"

	"lesslog/internal/crc32c"
	"lesslog/internal/msg"
	"lesslog/internal/stream"
	"lesslog/internal/transport"
)

// Server is a running gateway wire listener.
type Server struct {
	g   *Gateway
	srv *transport.Server
}

// Listen binds the gateway's client-facing socket ("127.0.0.1:0" picks a
// free port) and starts serving msg frames.
func (g *Gateway) Listen(addr string) (*Server, error) {
	s := &Server{g: g}
	var err error
	s.srv, err = transport.Listen(addr, s.handle, transport.ServeLoopOptions{
		Workers: g.cfg.PipelineWorkers,
		Depth:   &g.pipelineDepth,
		OnProtoError: func(err error) {
			g.counters.ProtoErrors.Inc()
			g.tr.Counters().CountRefusal(err)
			g.log.Debug("client connection protocol error", "err", err)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	g.log.Info("gateway listening", "addr", s.Addr(), "peers", len(g.peers))
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the listener and every open client connection, then awaits
// in-flight handlers. The gateway itself stays usable.
func (s *Server) Close() error { return s.srv.Close() }

// handle serves one client frame: edge trace sampling around the
// dispatch. Sampled (or client-traced) requests are recorded in the
// gateway's trace ring with whatever route the fabric assembled;
// sampler-promoted ones get the trace section stripped off the response
// again, so sampling stays invisible to clients that never asked.
func (s *Server) handle(req *msg.Request) *msg.Response {
	g := s.g
	if g.ring == nil || !isEdgeRequest(req) {
		return s.dispatch(req)
	}
	start := time.Now()
	sampled, promoted := g.sampleEdge(req)
	resp := s.dispatch(req)
	d := time.Since(start)
	if len(resp.Path) > 0 && resp.Path[0].PID == msg.GatewayPID {
		// The edge hop went out with zero duration; the response knows the
		// full edge latency.
		resp.Path[0].Dur = d
	}
	g.recordEdgeTrace(req, resp, start, d, sampled)
	if promoted {
		resp.Path = nil
	}
	return resp
}

// dispatch routes one client frame through the gateway.
func (s *Server) dispatch(req *msg.Request) *msg.Response {
	switch req.Kind {
	case msg.KindGet:
		if req.Flags&msg.FlagTrace != 0 {
			// A traced get wants the live overlay route; the cache would
			// hide it. Pass through untouched.
			return s.forward(req)
		}
		res, ref, err := s.g.read(req.Name)
		if err != nil {
			return errResponse(err)
		}
		resp := &msg.Response{
			OK: true, ServedBy: res.ServedBy, Hops: uint32(res.Hops),
			Version: res.Version, Data: res.Data,
		}
		if len(res.Data) > msg.MaxData {
			headAnswer(resp)
		}
		resp.Attach(ref) // a hit's reference ends once the answer is written
		return resp
	case msg.KindFetch:
		resp, err := s.g.fetchRange(req)
		if err != nil {
			return errResponse(err)
		}
		return resp
	case msg.KindInsert, msg.KindUpdate, msg.KindDelete:
		// Traced writes run the same floor-keeping path with the trace
		// section riding along, so the broadcast fan-out tree the fabric
		// assembles comes back to the edge.
		traceID := uint64(0)
		if req.Flags&msg.FlagTrace != 0 {
			if traceID = req.TraceID; traceID == 0 {
				traceID = s.g.traceIDs.Next()
			}
		}
		// An acknowledged write's Data goes into the write-through cache,
		// which takes a reference of its own.
		ref := req.Keep()
		defer ref.Release()
		wr, hops, err := s.g.writeTraced(req.Kind, req.Name, req.Data, ref, traceID, req.Path)
		if err != nil {
			return errResponse(err)
		}
		return &msg.Response{OK: true, Hops: uint32(wr.Copies), Version: wr.Version, Path: hops}
	case msg.KindTraces:
		return s.g.handleTraces()
	case msg.KindStat:
		if req.Flags&msg.FlagJSON != 0 {
			return s.statJSON()
		}
		return &msg.Response{OK: true, Data: []byte(s.g.StatLine())}
	}
	return s.forward(req)
}

// headAnswer turns resp, a get's answer carrying a body past one frame,
// into its head (msg.GetHead): the first chunk, with the sums one pass over
// the body gives, and one holder without an address — this gateway, where
// the client sent the get — so the client's ranges come back here and go
// on to a holder of the version the head pins.
func headAnswer(resp *msg.Response) {
	body := resp.Data
	chunk := body[:stream.DefaultChunkSize]
	first := &msg.FetchResp{TotalSize: uint64(len(body)), ChunkCRC: crc32c.Sum(chunk), Chunk: chunk}
	rest := body[len(chunk):]
	first.FileCRC = crc32c.Combine(first.ChunkCRC, crc32c.Sum(rest), uint64(len(rest)))
	hdr, err := msg.AppendGetHeadHeader(nil, []msg.Holder{{PID: msg.GatewayPID, Version: resp.Version}}, first)
	if err != nil {
		*resp = msg.Response{Err: fmt.Sprintf("gateway: get head encode: %v", err)}
		return
	}
	resp.Head, resp.Data, resp.Tail = true, hdr, chunk
}

func (s *Server) statJSON() *msg.Response {
	data, err := json.Marshal(s.g.StatSnapshot())
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("gateway: stat snapshot: %v", err)}
	}
	return &msg.Response{OK: true, Data: data}
}

func (s *Server) forward(req *msg.Request) *msg.Response {
	resp, err := s.g.Forward(req)
	if err != nil {
		return errResponse(err)
	}
	return resp
}

// errResponse maps a gateway error onto the wire. Faults keep the
// fabric's phrasing so clients (netnode.Client.Get) classify them the
// same way against a gateway as against a peer.
func errResponse(err error) *msg.Response {
	return &msg.Response{Err: err.Error()}
}
