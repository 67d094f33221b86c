package netnode

// The peer-side observability layer: per-handler latency histograms, the
// serve/forward split on the get path, broadcast fan-out sizes, a
// structured stats snapshot (the JSON form of the stat line), and the
// Prometheus text exposition the admin endpoint serves. The paper's whole
// point is that the lookup tree replaces access logs; this file is what
// makes that visible on a live system — no logs are consulted, only the
// counters and distributions the node updates as it routes.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"lesslog/internal/metrics"
	"lesslog/internal/msg"
	"lesslog/internal/store"
	"lesslog/internal/transport"
)

// peerObs bundles the peer's distributions. All fields are lock-free
// histograms, observed directly on the request path.
type peerObs struct {
	// handle is the full handler latency per request kind, measured from
	// decode to response — forwarded work included.
	handle [msg.KindCount]metrics.Histogram
	// serve is the latency of gets answered from the local store; forward
	// is the latency of gets that had to leave the node (downstream time
	// included). Their split is the live form of the paper's local-hit
	// versus tree-walk distinction.
	serve   metrics.Histogram
	forward metrics.Histogram
	// fanout records the number of delivery legs each update/delete
	// broadcast initiated at this peer.
	fanout metrics.Histogram
}

// handleHist returns the handler histogram for kind k.
func (o *peerObs) handleHist(k msg.Kind) *metrics.Histogram {
	if int(k) >= 1 && int(k) < msg.KindCount {
		return &o.handle[k]
	}
	return &o.handle[0]
}

// DistStat summarizes one distribution for the JSON stats snapshot.
// Latency distributions report milliseconds; the fan-out distribution
// reports legs.
type DistStat struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// distStat converts a snapshot, scaling samples by scale (1e-6 turns
// nanoseconds into milliseconds; 1 leaves counts alone).
func distStat(s metrics.HistogramSnapshot, scale float64) DistStat {
	return DistStat{
		Count: s.Count,
		Mean:  s.Mean() * scale,
		P50:   s.Quantile(0.5) * scale,
		P95:   s.Quantile(0.95) * scale,
		P99:   s.Quantile(0.99) * scale,
		Max:   float64(s.Max) * scale,
	}
}

const nsToMS = 1e-6

// StatSnapshot is the structured form of the stat line: everything the
// one-line summary says, plus the latency distributions, as one
// JSON-serializable value. Clients fetch it with KindStat + FlagJSON
// (Client.StatSnapshot, `lesslogd -op stat -json`).
type StatSnapshot struct {
	PID          uint32   `json:"pid"`
	Addr         string   `json:"addr"`
	M            int      `json:"m"`
	B            int      `json:"b"`
	Inserted     int      `json:"inserted"`
	Replicas     int      `json:"replicas"`
	LivePeers    int      `json:"live_peers"`
	KnownPeers   int      `json:"known_peers"`
	DetectorDown []uint32 `json:"detector_down"`

	Requests    uint64 `json:"requests"`
	Forwards    uint64 `json:"forwards"`
	Served      uint64 `json:"served"`
	Faults      uint64 `json:"faults"`
	Stored      uint64 `json:"stored"`
	Updated     uint64 `json:"updated"`
	Broadcast   uint64 `json:"broadcast"`
	PeersDown   uint64 `json:"peers_down"`
	PeersUp     uint64 `json:"peers_up"`
	ProtoErrors uint64 `json:"proto_errors"`

	// Locate-then-fetch data plane (docs/ROUTING.md): locates answered as
	// holder, local-only gets served/refused, and payload bytes relayed
	// through forwarded gets — the cost the locate path removes.
	Located      uint64 `json:"located"`
	DirectServed uint64 `json:"direct_served"`
	DirectMisses uint64 `json:"direct_misses"`
	RelayedBytes uint64 `json:"relayed_bytes"`

	// Chunked data plane (docs/ROUTING.md): ranged chunks served and their
	// payload bytes, version-pinned fetches refused (splice guard), and
	// replica-set locates answered as holder.
	ChunksServed  uint64 `json:"chunks_served"`
	ChunkBytes    uint64 `json:"chunk_bytes"`
	ChunkRefusals uint64 `json:"chunk_refusals"`
	LocateSets    uint64 `json:"locate_sets"`

	// Chunked write plane (docs/ROUTING.md "write plane"): upload chunks
	// staged and their payload bytes, staging sessions aborted (client
	// abort, TTL expiry, or a failed commit check), bodies pulled for a
	// notify delivery, broadcast initiations split by whether this peer already
	// held the name (the hint-guided entry measure), and request payload
	// bytes this peer pushed onto broadcast-tree legs (the bytes-on-tree
	// measure pull propagation keeps flat as copies grow).
	WriteChunks    uint64 `json:"write_chunks"`
	WriteBytes     uint64 `json:"write_bytes"`
	StagedAborts   uint64 `json:"staged_aborts"`
	NotifyPulls    uint64 `json:"notify_pulls"`
	WritesAtHolder uint64 `json:"writes_at_holder"`
	WritesRemote   uint64 `json:"writes_remote"`
	FanoutBytes    uint64 `json:"fanout_bytes"`

	// PipelineDepth is the number of pipelined requests currently being
	// handled across this peer's connections; FanoutActive is the number of
	// broadcast RPC legs currently in flight. Both are instantaneous gauges.
	PipelineDepth int64 `json:"pipeline_depth"`
	FanoutActive  int64 `json:"fanout_active"`

	// Anti-entropy repair (docs/REPAIR.md): probes issued, copies pushed
	// back / pulled in, local copies erased after a tombstone answer
	// (deletion propagated by repair), work deferred by the budget, digest
	// frame bytes, and the budget's current byte shortfall (gauge; 0 =
	// keeping up).
	RepairProbes  uint64 `json:"repair_probes"`
	Repaired      uint64 `json:"repaired"`
	RepairPulled  uint64 `json:"repair_pulled"`
	RepairErased  uint64 `json:"repair_erased"`
	RepairSkipped uint64 `json:"repair_skipped"`
	DigestBytes   uint64 `json:"digest_bytes"`
	RepairDeficit int64  `json:"repair_deficit"`

	// Tombstones gauges live delete tombstones (deletion debt not yet
	// pruned); RepairTTFRMS is the last completed time-to-full-replication
	// episode — how long the inventory stayed divergent before
	// anti-entropy converged it (0 until an episode completes).
	Tombstones   int     `json:"tombstones"`
	RepairTTFRMS float64 `json:"repair_ttfr_ms"`

	// PersistErrors counts store mutations the durable log did not take —
	// applied in memory, lost on restart (docs/STORAGE.md: every body over
	// the 16 MiB record cap, and everything after a write failure). Always
	// 0 on a peer without a data directory.
	PersistErrors uint64 `json:"persist_errors"`

	// Trace plane (docs/OBSERVABILITY.md): entry requests and repair
	// rounds recorded into the trace ring, and how many of those were
	// retained as notable (slow or errored).
	TraceRecorded uint64 `json:"trace_recorded"`
	TraceNoted    uint64 `json:"trace_noted"`

	Transport transport.CountersSnapshot `json:"transport"`

	// RPCLatencyMS is the outbound per-kind RPC latency seen by this
	// peer's transport; HandlerLatencyMS is the inbound per-kind handler
	// latency. ServeLatencyMS/ForwardLatencyMS split the get path;
	// BroadcastFanout counts legs, not milliseconds.
	RPCLatencyMS     map[string]DistStat `json:"rpc_latency_ms"`
	HandlerLatencyMS map[string]DistStat `json:"handler_latency_ms"`
	ServeLatencyMS   DistStat            `json:"serve_latency_ms"`
	ForwardLatencyMS DistStat            `json:"forward_latency_ms"`
	BroadcastFanout  DistStat            `json:"broadcast_fanout"`

	// HandlerLatencyHist is the raw per-kind handler histogram — unlike
	// the DistStat summaries above, raw bucket vectors merge exactly
	// across peers, which is what lesslog-top aggregates into
	// cluster-wide percentiles (internal/fleet).
	HandlerLatencyHist map[string]metrics.HistogramSnapshot `json:"handler_latency_hist"`

	// HotNames is the top of the per-name §6 serve-counter table — the
	// store's hottest copies this counting window, at most hotNamesTopK
	// rows. Inventory is the full per-name table, included only when the
	// stat request carried msg.FlagInventory.
	HotNames  []store.Record `json:"hot_names,omitempty"`
	Inventory []store.Record `json:"inventory,omitempty"`
}

// hotNamesTopK bounds the HotNames list every JSON stat snapshot carries.
const hotNamesTopK = 16

// StatSnapshot captures the peer's current observable state.
func (p *Peer) StatSnapshot() StatSnapshot { return p.statSnapshot(false) }

func (p *Peer) statSnapshot(withInventory bool) StatSnapshot {
	rt := p.rt()
	inserted := len(p.store.Names(store.Inserted))
	total := p.store.Len()
	live := rt.live.LiveCount()
	known := len(rt.addrs)

	s := StatSnapshot{
		PID:           uint32(p.cfg.PID),
		Addr:          p.Addr(),
		M:             p.cfg.M,
		B:             p.cfg.B,
		Inserted:      inserted,
		Replicas:      total - inserted,
		LivePeers:     live,
		KnownPeers:    known,
		DetectorDown:  p.det.DownIDs(),
		Requests:      p.stats.Requests.Load(),
		Forwards:      p.stats.Forwards.Load(),
		Served:        p.stats.Served.Load(),
		Faults:        p.stats.Faults.Load(),
		Stored:        p.stats.Stored.Load(),
		Updated:       p.stats.Updated.Load(),
		Broadcast:     p.stats.Broadcast.Load(),
		PeersDown:     p.stats.PeersDown.Load(),
		PeersUp:       p.stats.PeersUp.Load(),
		ProtoErrors:   p.stats.ProtoErrors.Load(),
		Located:       p.stats.Located.Load(),
		DirectServed:  p.stats.DirectServed.Load(),
		DirectMisses:  p.stats.DirectMisses.Load(),
		RelayedBytes:  p.stats.RelayedBytes.Load(),
		ChunksServed:  p.stats.ChunksServed.Load(),
		ChunkBytes:    p.stats.ChunkBytes.Load(),
		ChunkRefusals: p.stats.ChunkRefusals.Load(),
		LocateSets:    p.stats.LocateSets.Load(),

		WriteChunks:    p.stats.WriteChunks.Load(),
		WriteBytes:     p.stats.WriteBytes.Load(),
		StagedAborts:   p.stats.StagedAborts.Load(),
		NotifyPulls:    p.stats.NotifyPulls.Load(),
		WritesAtHolder: p.stats.WritesAtHolder.Load(),
		WritesRemote:   p.stats.WritesRemote.Load(),
		FanoutBytes:    p.stats.FanoutBytes.Load(),

		PipelineDepth: p.stats.PipelineDepth.Load(),
		FanoutActive:  p.stats.FanoutActive.Load(),
		RepairProbes:  p.stats.RepairProbes.Load(),
		Repaired:      p.stats.Repaired.Load(),
		RepairPulled:  p.stats.RepairPulled.Load(),
		RepairErased:  p.stats.RepairErased.Load(),
		RepairSkipped: p.stats.RepairSkipped.Load(),
		DigestBytes:   p.stats.DigestBytes.Load(),
		RepairDeficit: p.stats.RepairDeficit.Load(),
		Tombstones:    p.store.TombstoneCount(),
		RepairTTFRMS:  float64(p.ttfr.Last()) * nsToMS,
		TraceRecorded: p.ring.Recorded(),
		TraceNoted:    p.ring.Noted(),
		Transport:     p.tr.Counters().Snapshot(),

		RPCLatencyMS:       map[string]DistStat{},
		HandlerLatencyMS:   map[string]DistStat{},
		HandlerLatencyHist: map[string]metrics.HistogramSnapshot{},
		ServeLatencyMS:     distStat(p.obs.serve.Snapshot(), nsToMS),
		ForwardLatencyMS:   distStat(p.obs.forward.Snapshot(), nsToMS),
		BroadcastFanout:    distStat(p.obs.fanout.Snapshot(), 1),
	}
	for kind, snap := range p.tr.LatencySnapshots() {
		s.RPCLatencyMS[kind] = distStat(snap, nsToMS)
	}
	for i := 1; i < msg.KindCount; i++ {
		if p.obs.handle[i].Count() == 0 {
			continue
		}
		snap := p.obs.handle[i].Snapshot()
		s.HandlerLatencyMS[msg.Kind(i).String()] = distStat(snap, nsToMS)
		s.HandlerLatencyHist[msg.Kind(i).String()] = snap
	}
	if p.eng != nil {
		s.PersistErrors = p.eng.Stats().PersistErrors.Load()
	}
	records := p.store.Records()
	s.HotNames = hotNames(records, hotNamesTopK)
	if withInventory {
		s.Inventory = records
	}
	return s
}

// hotNames returns the top-k records by hits (ties by name for
// determinism), skipping cold copies — an all-zero window yields nothing.
func hotNames(records []store.Record, k int) []store.Record {
	hot := make([]store.Record, 0, len(records))
	for _, r := range records {
		if r.Hits > 0 {
			hot = append(hot, r)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Hits != hot[j].Hits {
			return hot[i].Hits > hot[j].Hits
		}
		return hot[i].Name < hot[j].Name
	})
	if len(hot) > k {
		hot = hot[:k]
	}
	return hot
}

// WritePrometheus writes the peer's metrics in Prometheus text format —
// the /metrics page of the admin endpoint. Metric names and labels are
// documented in docs/OBSERVABILITY.md.
func (p *Peer) WritePrometheus(w io.Writer) {
	s := p.StatSnapshot()
	self := fmt.Sprintf(`pid="%d"`, s.PID)

	metrics.PrometheusFamily(w, "lesslog_requests_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.Requests)})
	metrics.PrometheusFamily(w, "lesslog_forwards_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.Forwards)})
	metrics.PrometheusFamily(w, "lesslog_served_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.Served)})
	metrics.PrometheusFamily(w, "lesslog_faults_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.Faults)})
	metrics.PrometheusFamily(w, "lesslog_stored_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.Stored)})
	metrics.PrometheusFamily(w, "lesslog_updated_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.Updated)})
	metrics.PrometheusFamily(w, "lesslog_broadcast_legs_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.Broadcast)})
	metrics.PrometheusFamily(w, "lesslog_detector_flips_total", "counter",
		metrics.LabeledValue{Labels: mergePromLabels(self, `direction="down"`), Value: float64(s.PeersDown)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `direction="up"`), Value: float64(s.PeersUp)})
	metrics.PrometheusFamily(w, "lesslog_proto_errors_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.ProtoErrors)})
	metrics.PrometheusFamily(w, "lesslog_located_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.Located)})
	metrics.PrometheusFamily(w, "lesslog_direct_gets_total", "counter",
		metrics.LabeledValue{Labels: mergePromLabels(self, `outcome="served"`), Value: float64(s.DirectServed)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `outcome="miss"`), Value: float64(s.DirectMisses)})
	metrics.PrometheusFamily(w, "lesslog_relayed_payload_bytes_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.RelayedBytes)})
	metrics.PrometheusFamily(w, "lesslog_chunks_served_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.ChunksServed)})
	metrics.PrometheusFamily(w, "lesslog_chunk_payload_bytes_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.ChunkBytes)})
	metrics.PrometheusFamily(w, "lesslog_chunk_refusals_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.ChunkRefusals)})
	metrics.PrometheusFamily(w, "lesslog_locate_sets_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.LocateSets)})
	metrics.PrometheusFamily(w, "lesslog_write_chunks_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.WriteChunks)})
	metrics.PrometheusFamily(w, "lesslog_write_payload_bytes_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.WriteBytes)})
	metrics.PrometheusFamily(w, "lesslog_staged_aborts_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.StagedAborts)})
	metrics.PrometheusFamily(w, "lesslog_notify_propagation_total", "counter",
		metrics.LabeledValue{Labels: mergePromLabels(self, `outcome="pulled"`), Value: float64(s.NotifyPulls)})
	metrics.PrometheusFamily(w, "lesslog_write_entries_total", "counter",
		metrics.LabeledValue{Labels: mergePromLabels(self, `entry="holder"`), Value: float64(s.WritesAtHolder)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `entry="remote"`), Value: float64(s.WritesRemote)})
	metrics.PrometheusFamily(w, "lesslog_fanout_payload_bytes_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.FanoutBytes)})
	metrics.PrometheusFamily(w, "lesslog_repair_total", "counter",
		metrics.LabeledValue{Labels: mergePromLabels(self, `outcome="pushed"`), Value: float64(s.Repaired)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `outcome="pulled"`), Value: float64(s.RepairPulled)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `outcome="erased"`), Value: float64(s.RepairErased)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `outcome="skipped"`), Value: float64(s.RepairSkipped)})
	metrics.PrometheusFamily(w, "lesslog_repair_probes_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.RepairProbes)})
	metrics.PrometheusFamily(w, "lesslog_digest_bytes_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.DigestBytes)})
	metrics.PrometheusFamily(w, "lesslog_wal_persist_errors_total", "counter",
		metrics.LabeledValue{Labels: self, Value: float64(s.PersistErrors)})
	metrics.PrometheusFamily(w, "lesslog_traces_total", "counter",
		metrics.LabeledValue{Labels: mergePromLabels(self, `class="recorded"`), Value: float64(s.TraceRecorded)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `class="noted"`), Value: float64(s.TraceNoted)})

	tc := s.Transport
	metrics.PrometheusFamily(w, "lesslog_transport_events_total", "counter",
		metrics.LabeledValue{Labels: mergePromLabels(self, `event="dial"`), Value: float64(tc.Dials)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `event="pool_hit"`), Value: float64(tc.Reuses)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `event="retry"`), Value: float64(tc.Retries)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `event="timeout"`), Value: float64(tc.Timeouts)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `event="reconnect"`), Value: float64(tc.Reconnects)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `event="failure"`), Value: float64(tc.Failures)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `event="fault_injected"`), Value: float64(tc.Faults)})

	metrics.PrometheusFamily(w, "lesslog_live_peers", "gauge",
		metrics.LabeledValue{Labels: self, Value: float64(s.LivePeers)})
	metrics.PrometheusFamily(w, "lesslog_detector_down_peers", "gauge",
		metrics.LabeledValue{Labels: self, Value: float64(len(s.DetectorDown))})
	metrics.PrometheusFamily(w, "lesslog_store_files", "gauge",
		metrics.LabeledValue{Labels: mergePromLabels(self, `kind="inserted"`), Value: float64(s.Inserted)},
		metrics.LabeledValue{Labels: mergePromLabels(self, `kind="replica"`), Value: float64(s.Replicas)})
	metrics.PrometheusFamily(w, "lesslog_pipeline_depth", "gauge",
		metrics.LabeledValue{Labels: self, Value: float64(s.PipelineDepth)})
	metrics.PrometheusFamily(w, "lesslog_fanout_active_legs", "gauge",
		metrics.LabeledValue{Labels: self, Value: float64(s.FanoutActive)})
	metrics.PrometheusFamily(w, "lesslog_repair_deficit_bytes", "gauge",
		metrics.LabeledValue{Labels: self, Value: float64(s.RepairDeficit)})
	metrics.PrometheusFamily(w, "lesslog_tombstones", "gauge",
		metrics.LabeledValue{Labels: self, Value: float64(s.Tombstones)})
	metrics.PrometheusFamily(w, "lesslog_repair_ttfr_seconds", "gauge",
		metrics.LabeledValue{Labels: self, Value: s.RepairTTFRMS / 1e3})

	var rpc []metrics.LabeledHistogram
	for kind, snap := range p.tr.LatencySnapshots() {
		rpc = append(rpc, metrics.LabeledHistogram{
			Labels: mergePromLabels(self, fmt.Sprintf(`kind="%s"`, kind)), Snap: snap,
		})
	}
	metrics.PrometheusHistogram(w, "lesslog_rpc_latency_seconds", 1e-9, rpc...)

	var handlers []metrics.LabeledHistogram
	for i := 1; i < msg.KindCount; i++ {
		if p.obs.handle[i].Count() == 0 {
			continue
		}
		handlers = append(handlers, metrics.LabeledHistogram{
			Labels: mergePromLabels(self, fmt.Sprintf(`kind="%s"`, msg.Kind(i))),
			Snap:   p.obs.handle[i].Snapshot(),
		})
	}
	metrics.PrometheusHistogram(w, "lesslog_handler_latency_seconds", 1e-9, handlers...)

	metrics.PrometheusHistogram(w, "lesslog_get_serve_latency_seconds", 1e-9,
		metrics.LabeledHistogram{Labels: self, Snap: p.obs.serve.Snapshot()})
	metrics.PrometheusHistogram(w, "lesslog_get_forward_latency_seconds", 1e-9,
		metrics.LabeledHistogram{Labels: self, Snap: p.obs.forward.Snapshot()})
	metrics.PrometheusHistogram(w, "lesslog_broadcast_fanout_legs", 1,
		metrics.LabeledHistogram{Labels: self, Snap: p.obs.fanout.Snapshot()})
}

// mergePromLabels joins two non-empty label bodies.
func mergePromLabels(a, b string) string { return a + "," + b }

// appendHop extends a traced route with this stop's record, copying so
// retries and downstream appends never alias the caller's slice. The new
// hop's parent is the path's tail — on a linear walk that reproduces the
// old implicit ordering; on a fan-out each branch carries its parent's
// hop at the tail, so concurrently collected records still assemble into
// the right tree. A path already at the frame limit is passed through
// unchanged — the route stays truncated rather than failing the request.
func appendHop(path []msg.Hop, pid uint32, action msg.HopAction, d time.Duration) []msg.Hop {
	if len(path) >= msg.MaxHops {
		return path
	}
	parent := msg.NoParent
	if len(path) > 0 {
		parent = path[len(path)-1].PID
	}
	out := make([]msg.Hop, len(path), len(path)+1)
	copy(out, path)
	return append(out, msg.Hop{PID: pid, Parent: parent, Action: action, Dur: d})
}
