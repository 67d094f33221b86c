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

// StatSnapshot is the structured form of the stat line: everything the
// one-line summary says, plus the latency distributions, as one
// JSON-serializable value. Clients fetch it with KindStat + FlagJSON
// (Client.StatSnapshot, `lesslogd -op stat -json`). Its tagged fields are
// also the one declaration of every peer metric: the /metrics page, the
// fleet merge and the lesslog-top screen are derived from them
// (internal/metrics "One declaration per metric", docs/OBSERVABILITY.md
// "Adding a metric").
type StatSnapshot struct {
	PID          uint32   `json:"pid" prom:"-"`
	Addr         string   `json:"addr"`
	M            int      `json:"m" prom:"-"`
	B            int      `json:"b" prom:"-"`
	LivePeers    int      `json:"live_peers" prom:"lesslog_live_peers,gauge" fleet:"max,fabric"`
	KnownPeers   int      `json:"known_peers" prom:"-"`
	DetectorDown []uint32 `json:"detector_down" prom:"lesslog_detector_down_peers,gauge"`

	Totals // ends with the repair plane, which RepairTTFRMS continues

	// RepairTTFRMS is the last completed time-to-full-replication episode —
	// how long the inventory stayed divergent before anti-entropy converged
	// it (0 until an episode completes). The fleet reports the worst.
	RepairTTFRMS float64 `json:"repair_ttfr_ms" prom:"lesslog_repair_ttfr_seconds,gauge,scale=1e-3" fleet:"max,repair,as=repair_ttfr_ms_max"`

	// PipelineDepth is the number of pipelined requests currently being
	// handled across this peer's connections; FanoutActive is the number of
	// broadcast RPC legs currently in flight. Both are instantaneous gauges.
	PipelineDepth int64 `json:"pipeline_depth" prom:"lesslog_pipeline_depth,gauge" fleet:"spread,load"`
	FanoutActive  int64 `json:"fanout_active" prom:"lesslog_fanout_active_legs,gauge" fleet:"spread,load"`

	Transport transport.CountersSnapshot `json:"transport"`

	// RPCLatencyMS is the outbound per-kind RPC latency seen by this
	// peer's transport; HandlerLatencyMS is the inbound per-kind handler
	// latency. ServeLatencyMS/ForwardLatencyMS split the get path;
	// BroadcastFanout counts legs, not milliseconds.
	RPCLatencyMS     map[string]metrics.DistStat `json:"rpc_latency_ms" prom:"lesslog_rpc_latency_seconds,kind=*,scale=1e-9"`
	HandlerLatencyMS map[string]metrics.DistStat `json:"handler_latency_ms" prom:"lesslog_handler_latency_seconds,kind=*,scale=1e-9"`
	ServeLatencyMS   metrics.DistStat            `json:"serve_latency_ms" prom:"lesslog_get_serve_latency_seconds,scale=1e-9"`
	ForwardLatencyMS metrics.DistStat            `json:"forward_latency_ms" prom:"lesslog_get_forward_latency_seconds,scale=1e-9"`
	BroadcastFanout  metrics.DistStat            `json:"broadcast_fanout" prom:"lesslog_broadcast_fanout_legs"`

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

// Totals are the peer's additive metrics: each sums across peers, so the
// fleet view (fleet.Cluster) embeds this same block and a counter added
// here reaches lesslog-top with no further edit. The second fleet word is
// the lesslog-top line the sum is rendered on.
type Totals struct {
	PeersDown uint64 `json:"peers_down" prom:"lesslog_detector_flips_total,direction=down" fleet:"sum,fabric"`
	PeersUp   uint64 `json:"peers_up" prom:"lesslog_detector_flips_total,direction=up" fleet:"sum,fabric"`

	Inserted int `json:"inserted" prom:"lesslog_store_files,kind=inserted,gauge" fleet:"sum,files"`
	Replicas int `json:"replicas" prom:"lesslog_store_files,kind=replica,gauge" fleet:"sum,files"`

	Requests    uint64 `json:"requests" prom:"lesslog_requests_total" fleet:"sum,traffic"`
	Forwards    uint64 `json:"forwards" prom:"lesslog_forwards_total" fleet:"sum,traffic"`
	Served      uint64 `json:"served" prom:"lesslog_served_total" fleet:"sum,traffic"`
	Faults      uint64 `json:"faults" prom:"lesslog_faults_total" fleet:"sum,traffic"`
	Stored      uint64 `json:"stored" prom:"lesslog_stored_total" fleet:"sum,traffic"`
	Updated     uint64 `json:"updated" prom:"lesslog_updated_total" fleet:"sum,traffic"`
	Broadcast   uint64 `json:"broadcast" prom:"lesslog_broadcast_legs_total" fleet:"sum,traffic"`
	ProtoErrors uint64 `json:"proto_errors" prom:"lesslog_proto_errors_total" fleet:"sum,traffic"`
	// RouteDivergence counts traced lookups entered here whose observed hops
	// differ from this peer's own prediction of the walk (ptree.View.Next):
	// nonzero means peers are routing on different liveness views.
	RouteDivergence uint64 `json:"route_divergence" prom:"lesslog_route_divergence_total" fleet:"sum,traffic"`
	// PersistErrors counts store mutations the durable log did not take —
	// applied in memory, lost on restart (docs/STORAGE.md: every body over
	// the 16 MiB record cap, and everything after a write failure). Always
	// 0 on a peer without a data directory.
	PersistErrors uint64 `json:"persist_errors" prom:"lesslog_wal_persist_errors_total" fleet:"sum,traffic"`

	// Locate-then-fetch data plane (docs/ROUTING.md): locates answered as
	// holder, local-only gets served/refused, and payload bytes relayed
	// through forwarded gets — the cost the locate path removes.
	Located      uint64 `json:"located" prom:"lesslog_located_total" fleet:"sum,locate"`
	DirectServed uint64 `json:"direct_served" prom:"lesslog_direct_gets_total,outcome=served" fleet:"sum,locate"`
	DirectMisses uint64 `json:"direct_misses" prom:"lesslog_direct_gets_total,outcome=miss" fleet:"sum,locate"`
	RelayedBytes uint64 `json:"relayed_bytes" prom:"lesslog_relayed_payload_bytes_total" fleet:"sum,locate"`

	// Chunked data plane (docs/ROUTING.md): ranged chunks served and their
	// payload bytes, and version-pinned fetches refused (splice guard).
	ChunksServed  uint64 `json:"chunks_served" prom:"lesslog_chunks_served_total" fleet:"sum,chunks"`
	ChunkBytes    uint64 `json:"chunk_bytes" prom:"lesslog_chunk_payload_bytes_total" fleet:"sum,chunks"`
	ChunkRefusals uint64 `json:"chunk_refusals" prom:"lesslog_chunk_refusals_total" fleet:"sum,chunks"`
	// ChecksummedBytes: body bytes CRC-32C ran over at this peer, in either
	// direction of either chunk plane (docs/ROUTING.md "Checksums") — against
	// chunk_bytes + write_bytes it reads 1 when every byte is summed once.
	ChecksummedBytes uint64 `json:"checksummed_bytes" prom:"lesslog_checksummed_bytes_total" fleet:"sum,chunks"`

	// Chunked write plane (docs/ROUTING.md "write plane"): upload chunks
	// staged and their payload bytes, staging sessions aborted (client
	// abort, TTL expiry, or a failed commit check), bodies pulled for a
	// notify delivery, write entries split by whether this peer was where
	// the write belongs — a holder of the updated or deleted name, a
	// primary of the inserted one (the client's write-entry measure) — and
	// request payload bytes this peer pushed onto broadcast-tree legs (the
	// bytes-on-tree measure pull propagation keeps flat as copies grow).
	WriteChunks    uint64 `json:"write_chunks" prom:"lesslog_write_chunks_total" fleet:"sum,writes"`
	WriteBytes     uint64 `json:"write_bytes" prom:"lesslog_write_payload_bytes_total" fleet:"sum,writes"`
	StagedAborts   uint64 `json:"staged_aborts" prom:"lesslog_staged_aborts_total" fleet:"sum,writes"`
	NotifyPulls    uint64 `json:"notify_pulls" prom:"lesslog_notify_propagation_total,outcome=pulled" fleet:"sum,writes"`
	WritesAtHolder uint64 `json:"writes_at_holder" prom:"lesslog_write_entries_total,entry=holder" fleet:"sum,writes"`
	WritesRemote   uint64 `json:"writes_remote" prom:"lesslog_write_entries_total,entry=remote" fleet:"sum,writes"`
	FanoutBytes    uint64 `json:"fanout_bytes" prom:"lesslog_fanout_payload_bytes_total" fleet:"sum,writes"`

	// Placement (docs/ROUTING.md "Placement"): copies this peer put on a
	// peer, by the reason the paper moves a file — the sender side of
	// `stored`. The repair push is `repaired`, below.
	PlacedInsert    uint64 `json:"placed_insert" prom:"lesslog_placed_total,reason=insert" fleet:"sum,placed"`
	PlacedReplicate uint64 `json:"placed_replicate" prom:"lesslog_placed_total,reason=replicate" fleet:"sum,placed"`
	PlacedHandoff   uint64 `json:"placed_handoff" prom:"lesslog_placed_total,reason=handoff" fleet:"sum,placed"`
	PlacedRestore   uint64 `json:"placed_restore" prom:"lesslog_placed_total,reason=restore" fleet:"sum,placed"`

	// Trace plane (docs/OBSERVABILITY.md): entry requests and repair
	// rounds recorded into the trace ring, and how many of those were
	// retained as notable (slow or errored).
	TraceRecorded uint64 `json:"trace_recorded" prom:"lesslog_traces_total,class=recorded" fleet:"sum,traces"`
	TraceNoted    uint64 `json:"trace_noted" prom:"lesslog_traces_total,class=noted" fleet:"sum,traces"`

	// Anti-entropy repair (docs/REPAIR.md): probes issued, copies pushed
	// back / pulled in, local copies erased after a tombstone answer
	// (deletion propagated by repair), work deferred by the budget, digest
	// frame bytes, the budget's current byte shortfall (gauge; 0 =
	// keeping up), and live delete tombstones (deletion debt not yet
	// pruned).
	RepairProbes  uint64 `json:"repair_probes" prom:"lesslog_repair_probes_total" fleet:"sum,repair"`
	Repaired      uint64 `json:"repaired" prom:"lesslog_repair_total,outcome=pushed" fleet:"sum,repair"`
	RepairPulled  uint64 `json:"repair_pulled" prom:"lesslog_repair_total,outcome=pulled" fleet:"sum,repair"`
	RepairErased  uint64 `json:"repair_erased" prom:"lesslog_repair_total,outcome=erased" fleet:"sum,repair"`
	RepairSkipped uint64 `json:"repair_skipped" prom:"lesslog_repair_total,outcome=skipped" fleet:"sum,repair"`
	DigestBytes   uint64 `json:"digest_bytes" prom:"lesslog_digest_bytes_total" fleet:"sum,repair"`
	RepairDeficit int64  `json:"repair_deficit" prom:"lesslog_repair_deficit_bytes,gauge" fleet:"sum,repair"`
	Tombstones    int    `json:"tombstones" prom:"lesslog_tombstones,gauge" fleet:"sum,repair"`
}

// hotNamesTopK bounds the HotNames list every JSON stat snapshot carries.
const hotNamesTopK = 16

// StatSnapshot captures the peer's current observable state.
func (p *Peer) StatSnapshot() StatSnapshot { return p.statSnapshot(false) }

// statSnapshot is the JSON stat path: the scalars plus the per-name
// tables, which cost a sorted copy of the whole inventory.
func (p *Peer) statSnapshot(withInventory bool) StatSnapshot {
	s := p.scalars()
	records := p.store.Records()
	s.HotNames = hotNames(records, hotNamesTopK)
	if withInventory {
		s.Inventory = records
	}
	return s
}

// scalars captures everything whose size does not grow with the number of
// stored names — all a /metrics scrape needs, so a scrape neither
// allocates per name nor sorts under the shard locks.
func (p *Peer) scalars() StatSnapshot {
	rt := p.rt()
	s := StatSnapshot{
		PID:          uint32(p.cfg.PID),
		Addr:         p.Addr(),
		M:            p.cfg.M,
		B:            p.cfg.B,
		LivePeers:    rt.live.LiveCount(),
		KnownPeers:   len(rt.addrs),
		DetectorDown: p.det.DownIDs(),
		RepairTTFRMS: float64(p.ttfr.Last()) * metrics.NsToMS,
		Transport:    p.tr.Counters().Snapshot(),

		RPCLatencyMS:       map[string]metrics.DistStat{},
		HandlerLatencyMS:   map[string]metrics.DistStat{},
		HandlerLatencyHist: map[string]metrics.HistogramSnapshot{},
		ServeLatencyMS:     p.obs.serve.Snapshot().DistStat(metrics.NsToMS),
		ForwardLatencyMS:   p.obs.forward.Snapshot().DistStat(metrics.NsToMS),
		BroadcastFanout:    p.obs.fanout.Snapshot().DistStat(1),
	}
	metrics.Load(&s, &p.stats)
	s.ChecksummedBytes += p.puller.Stats().ChecksummedBytes.Load()
	s.Inserted, s.Replicas = p.store.Counts()
	s.Tombstones = p.store.TombstoneCount()
	s.TraceRecorded, s.TraceNoted = p.ring.Recorded(), p.ring.Noted()
	if p.eng != nil {
		s.PersistErrors = p.eng.Stats().PersistErrors.Load()
	}
	for kind, snap := range p.tr.LatencySnapshots() {
		s.RPCLatencyMS[kind] = snap.DistStat(metrics.NsToMS)
	}
	for i := 1; i < msg.KindCount; i++ {
		if p.obs.handle[i].Count() == 0 {
			continue
		}
		snap := p.obs.handle[i].Snapshot()
		s.HandlerLatencyMS[msg.Kind(i).String()] = snap.DistStat(metrics.NsToMS)
		s.HandlerLatencyHist[msg.Kind(i).String()] = snap
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
// the /metrics page of the admin endpoint: every tagged field of
// StatSnapshot, under a pid label. docs/OBSERVABILITY.md lists them.
func (p *Peer) WritePrometheus(w io.Writer) {
	s := p.scalars()
	metrics.WritePrometheus(w, fmt.Sprintf(`pid="%d"`, s.PID), s)
}

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
