package netnode

// The peer half of the always-on trace plane (docs/OBSERVABILITY.md):
// every request entering the fabric here is head-sampled 1-in-N and, when
// sampled, carries the wire trace section through whatever plane serves
// it — the lookup walk, the update/delete broadcast fan-out, the repair
// exchanges. Finished traces land in a bounded tracering.Ring, with slow
// and errored requests tail-retained even when the head sampler passed
// them by. The ring is served over the wire (msg.KindTraces) and the
// admin endpoint (/traces).

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"lesslog/internal/msg"
	"lesslog/internal/tracering"
)

// isEntryRequest reports whether req entered the fabric at this peer: an
// operation a client (or gateway) initiated, not an internal leg. Only
// entry requests are sampled and recorded — forwarded gets (Hops > 0),
// broadcast legs (FlagPropagate), repair pushes and probes all belong to
// a trace rooted elsewhere.
func isEntryRequest(req *msg.Request) bool {
	if req.Hops != 0 || req.Flags&msg.FlagPropagate != 0 {
		return false
	}
	switch req.Kind {
	case msg.KindGet, msg.KindLocateSet, msg.KindInsert, msg.KindUpdate, msg.KindDelete:
		return true
	}
	return false
}

// maybeSampleEntry decides whether req's trace should be recorded at this
// peer: client-traced entry requests always are, and untraced ones are
// promoted to traced when the head sampler picks them (stamping FlagTrace,
// so the whole downstream route cooperates). Either way a request that
// came without a TraceID is given a fresh one, so the ring never files two
// traces under ID 0. promoted marks sampler picks — the caller strips the
// trace section off the response again, so sampling stays invisible to
// clients that never asked for a trace.
func (p *Peer) maybeSampleEntry(req *msg.Request) (sampled, promoted bool) {
	if p.ring == nil || !isEntryRequest(req) {
		return false, false
	}
	promoted = req.Flags&msg.FlagTrace == 0
	if promoted && !p.sampler.Sample() {
		return false, false
	}
	req.Flags |= msg.FlagTrace
	if req.TraceID == 0 {
		req.TraceID = p.traceIDs.Next()
	}
	return true, promoted
}

// recordEntryTrace retains a finished entry request in the trace ring:
// sampled requests always, unsampled ones only when slow or errored (the
// tail the head sampler must not lose — those land hop-less, since no
// trace section traveled with them).
func (p *Peer) recordEntryTrace(req *msg.Request, resp *msg.Response, start time.Time, d time.Duration, sampled bool) {
	if p.ring == nil {
		return
	}
	if !sampled && (!isEntryRequest(req) || (resp.Err == "" && d < p.ring.Slow())) {
		return
	}
	p.ring.Record(tracering.Trace{
		ID: req.TraceID, Kind: req.Kind.String(), Name: req.Name,
		Start: start, Dur: d, Err: resp.Err, Hops: resp.Path,
	})
}

// hopCollector gathers the Hop records of one fan-out's subtree as its
// concurrent legs return. Nil collectors (untraced propagation) drop
// silently, so the broadcast path branches once at the top, not per leg.
type hopCollector struct {
	mu   sync.Mutex
	hops []msg.Hop
}

// newHopCollector returns a collector when req is traced, nil otherwise.
func newHopCollector(req *msg.Request) *hopCollector {
	if req.Flags&msg.FlagTrace == 0 {
		return nil
	}
	return &hopCollector{}
}

// add appends hops, capping at the frame limit (a truncated trace beats a
// failed response).
func (c *hopCollector) add(hops ...msg.Hop) {
	if c == nil || len(hops) == 0 {
		return
	}
	c.mu.Lock()
	if room := msg.MaxHops - len(c.hops); room > 0 {
		if len(hops) > room {
			hops = hops[:room]
		}
		c.hops = append(c.hops, hops...)
	}
	c.mu.Unlock()
}

// take returns the collected hops; nil for a nil collector.
func (c *hopCollector) take() []msg.Hop {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hops
}

// legTrace is the trace section the internal exchanges of one traced
// operation travel under — an insert's placement legs, a repair round's
// probes, pushes and digest exchange. Every leg carries the same ID and
// path, so each responder's hop parents on the path's tail, and the hops
// the legs bring back are gathered as they return (concurrently, for an
// insert). A nil *legTrace is an untraced operation: every method no-ops.
type legTrace struct {
	id    uint64
	start time.Time
	path  []msg.Hop
	col   hopCollector
}

// newRepairTrace head-samples one repair round (or digest sync) under a
// HopRepair root at this peer — the assembled trace is a star rooted at
// the repairing peer. Nil when tracing is off or the sampler passes.
func (p *Peer) newRepairTrace() *legTrace {
	if p.ring == nil || !p.sampler.Sample() {
		return nil
	}
	return &legTrace{id: p.traceIDs.Next(), start: time.Now(), path: []msg.Hop{{
		PID: uint32(p.cfg.PID), Parent: msg.NoParent, Action: msg.HopRepair,
	}}}
}

// stamp marks req as one leg of this trace.
func (t *legTrace) stamp(req *msg.Request) {
	if t == nil {
		return
	}
	req.Flags |= msg.FlagTrace
	req.TraceID = t.id
	req.Path = t.path
}

// collect keeps the hops a stamped exchange brought back beyond the path
// it carried.
func (t *legTrace) collect(resp *msg.Response) {
	if t != nil && resp != nil && len(resp.Path) > len(t.path) {
		t.col.add(resp.Path[len(t.path):]...)
	}
}

// take returns the hops collected so far.
func (t *legTrace) take() []msg.Hop {
	if t == nil {
		return nil
	}
	return t.col.take()
}

// record lands an assembled repair round in the ring under the given kind
// ("repair" or "digest"). Rounds that never traced an exchange (nothing
// to probe, or the budget denied everything) are dropped — an empty star
// says nothing.
func (t *legTrace) record(p *Peer, kind string) {
	hops := t.take()
	if len(hops) == 0 {
		return
	}
	p.ring.Record(tracering.Trace{
		ID: t.id, Kind: kind, Start: t.start,
		Dur: time.Since(t.start), Hops: append(t.path, hops...),
	})
}

// handleTraces serves the trace ring over the wire: the ring snapshot as
// JSON, the same body /traces serves over HTTP.
func (p *Peer) handleTraces() *msg.Response {
	data, err := json.Marshal(p.ring.Snapshot())
	if err != nil {
		return &msg.Response{Err: fmt.Sprintf("netnode: traces snapshot: %v", err)}
	}
	return &msg.Response{OK: true, ServedBy: uint32(p.cfg.PID), Data: data}
}

// TraceSnapshot returns the peer's trace ring contents — empty when
// tracing is disabled.
func (p *Peer) TraceSnapshot() tracering.Snapshot { return p.ring.Snapshot() }
