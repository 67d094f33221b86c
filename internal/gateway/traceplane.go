package gateway

// The edge half of the always-on trace plane (docs/OBSERVABILITY.md): the
// gateway head-samples the client requests it admits and stamps sampled
// writes (and any client-traced request) with a trace ID plus an edge hop
// carrying msg.GatewayPID, so the hops the fabric assembles — entry peer,
// broadcast fan-out, holders — parent back onto the gateway and one trace
// spans client edge and overlay. Finished traces land in the gateway's
// own bounded ring, with slow and errored requests tail-retained even
// when the head sampler passed them by; the ring is served over the wire
// (msg.KindTraces) and the admin endpoint (/traces).

import (
	"encoding/json"
	"fmt"
	"time"

	"lesslog/internal/msg"
	"lesslog/internal/tracering"
)

// isEdgeRequest reports whether req is a client operation the gateway
// interposes — the requests worth tracing at the edge. Forwarded
// plumbing kinds (store, has, table, stat, ...) belong to whoever sent
// them.
func isEdgeRequest(req *msg.Request) bool {
	if req.Hops != 0 || req.Flags&msg.FlagPropagate != 0 {
		return false
	}
	switch req.Kind {
	case msg.KindGet, msg.KindInsert, msg.KindUpdate, msg.KindDelete:
		return true
	}
	return false
}

// stampEdge prefixes req's trace path with the gateway's edge hop, the
// root every downstream fabric hop parents onto. The hop's duration is
// patched to the full edge latency once the response is in hand.
func (g *Gateway) stampEdge(req *msg.Request) {
	parent := msg.NoParent
	if n := len(req.Path); n > 0 {
		parent = req.Path[n-1].PID
	}
	req.Path = append(req.Path, msg.Hop{
		PID: msg.GatewayPID, Parent: parent, Action: msg.HopEdge,
	})
}

// sampleEdge decides whether req's trace should be recorded at the edge:
// client-traced requests always are, and untraced ones are promoted when
// the head sampler picks them. Promoted writes go out traced (FlagTrace +
// fresh ID + edge hop) so the fabric assembles the broadcast tree for
// them; promoted gets record edge-only — tracing must not
// knock a get off the cache/coalescer path it would otherwise take.
// promoted marks sampler picks — the caller strips the trace section off
// the response, so sampling stays invisible to clients that never asked.
func (g *Gateway) sampleEdge(req *msg.Request) (sampled, promoted bool) {
	if req.Flags&msg.FlagTrace != 0 {
		if req.TraceID == 0 {
			req.TraceID = g.traceIDs.Next()
		}
		g.stampEdge(req)
		return true, false
	}
	if !g.sampler.Sample() {
		return false, false
	}
	req.TraceID = g.traceIDs.Next()
	switch req.Kind {
	case msg.KindInsert, msg.KindUpdate, msg.KindDelete:
		req.Flags |= msg.FlagTrace
		g.stampEdge(req)
	}
	return true, true
}

// recordEdgeTrace retains a finished edge request in the trace ring:
// sampled requests always, unsampled ones only when slow or errored (the
// tail the head sampler must not lose). Requests that never carried a
// trace section downstream land with just the edge hop.
func (g *Gateway) recordEdgeTrace(req *msg.Request, resp *msg.Response, start time.Time, d time.Duration, sampled bool) {
	if !sampled && resp.Err == "" && d < g.ring.Slow() {
		return
	}
	hops := resp.Path
	if len(hops) == 0 {
		hops = []msg.Hop{{PID: msg.GatewayPID, Parent: msg.NoParent, Action: msg.HopEdge, Dur: d}}
	}
	g.ring.Record(tracering.Trace{
		ID: req.TraceID, Kind: req.Kind.String(), Name: req.Name,
		Start: start, Dur: d, Err: resp.Err, Hops: hops,
	})
}

// handleTraces serves the gateway's trace ring over the wire — the same
// body /traces serves over HTTP. Gateways answer for their own edge;
// peer rings are scraped at the peers.
func (g *Gateway) handleTraces() *msg.Response {
	data, err := json.Marshal(g.ring.Snapshot())
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("gateway: traces snapshot: %v", err)}
	}
	return &msg.Response{OK: true, ServedBy: msg.GatewayPID, Data: data}
}

// TraceSnapshot returns the gateway's trace ring contents — empty when
// tracing is disabled.
func (g *Gateway) TraceSnapshot() tracering.Snapshot { return g.ring.Snapshot() }
