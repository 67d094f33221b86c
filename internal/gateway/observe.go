package gateway

// The gateway's operator surface: the counter set, a JSON-ready stats
// snapshot, Prometheus text exposition, and a small admin HTTP server
// (/metrics, /healthz, /traces, /debug/pprof) — the same shape a netnode
// peer exposes, specialized to edge concerns: hit ratio, coalescing rate,
// shed rate, queue wait, edge traces.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"lesslog/internal/metrics"
	"lesslog/internal/netnode"
	"lesslog/internal/transport"
)

// Counters is the gateway's observable behavior: the edge's own events,
// plus the ladder's — counted once, in the shared client, and read here
// through the embedded pointer (hint hits and staleness, locates, relays,
// chunked gets and puts, hint refreshes, oversize rejects, fetch errors).
type Counters struct {
	*netnode.LocateStats

	Hits        metrics.AtomicCounter // gets served from a fresh cache entry
	Misses      metrics.AtomicCounter // gets that needed a fabric fetch
	Coalesced   metrics.AtomicCounter // gets that rode another request's fetch
	StaleServed metrics.AtomicCounter // floor-satisfying cache entries served over a stale fabric answer
	Shed        metrics.AtomicCounter // requests refused by admission control
	Inserts     metrics.AtomicCounter // acknowledged inserts
	Updates     metrics.AtomicCounter // acknowledged updates
	Deletes     metrics.AtomicCounter // acknowledged deletes
	Passthrough metrics.AtomicCounter // uninterposed requests forwarded
	PeersDown   metrics.AtomicCounter // entry peers declared down
	PeersUp     metrics.AtomicCounter // entry peers restored
	ProtoErrors metrics.AtomicCounter // client-connection decode/write failures
}

// CountersSnapshot is the plain-value copy of Counters plus the cache's
// internal counters, JSON-ready. Its tags (and StatSnapshot's) are the one
// declaration of every gateway metric: /metrics is derived from them
// (internal/metrics "One declaration per metric").
type CountersSnapshot struct {
	Hits          uint64 `json:"hits" prom:"lesslog_gateway_requests_total,outcome=hit"`
	Misses        uint64 `json:"misses" prom:"lesslog_gateway_requests_total,outcome=miss"`
	Coalesced     uint64 `json:"coalesced" prom:"lesslog_gateway_requests_total,outcome=coalesced"`
	StaleServed   uint64 `json:"stale_served" prom:"lesslog_gateway_requests_total,outcome=stale_served"`
	Shed          uint64 `json:"shed" prom:"lesslog_gateway_requests_total,outcome=shed"`
	FetchErrors   uint64 `json:"fetch_errors" prom:"lesslog_gateway_fetch_errors_total"`
	Inserts       uint64 `json:"inserts" prom:"lesslog_gateway_writes_total,kind=insert"`
	Updates       uint64 `json:"updates" prom:"lesslog_gateway_writes_total,kind=update"`
	Deletes       uint64 `json:"deletes" prom:"lesslog_gateway_writes_total,kind=delete"`
	Passthrough   uint64 `json:"passthrough" prom:"lesslog_gateway_passthrough_total"`
	PeersDown     uint64 `json:"peers_down" prom:"lesslog_gateway_peer_flips_total,direction=down"`
	PeersUp       uint64 `json:"peers_up" prom:"lesslog_gateway_peer_flips_total,direction=up"`
	ProtoErrors   uint64 `json:"proto_errors" prom:"lesslog_gateway_proto_errors_total"`
	Evictions     uint64 `json:"cache_evictions" prom:"lesslog_gateway_cache_events_total,event=eviction"`
	Invalidations uint64 `json:"cache_invalidations" prom:"lesslog_gateway_cache_events_total,event=invalidation"`
	StaleRejected uint64 `json:"cache_stale_rejected" prom:"lesslog_gateway_cache_events_total,event=stale_rejected"`

	HintHits  uint64 `json:"hint_hits" prom:"lesslog_gateway_locate_events_total,event=hint_hit"`
	HintStale uint64 `json:"hint_stale" prom:"lesslog_gateway_locate_events_total,event=hint_stale"`
	Locates   uint64 `json:"locates" prom:"lesslog_gateway_locate_events_total,event=locate"`
	Relays    uint64 `json:"relays" prom:"lesslog_gateway_locate_events_total,event=relay"`

	OversizeRejected uint64 `json:"oversize_rejected" prom:"lesslog_gateway_oversize_rejected_total"`
	ChunkedFills     uint64 `json:"chunked_fills" prom:"lesslog_gateway_chunk_events_total,event=fill"`
	ChunksFetched    uint64 `json:"chunks_fetched" prom:"lesslog_gateway_chunk_events_total,event=chunk"`
	ChunkRetries     uint64 `json:"chunk_retries" prom:"lesslog_gateway_chunk_events_total,event=retry"`

	ChunkedPuts   uint64 `json:"chunked_puts" prom:"lesslog_gateway_write_plane_total,event=chunked_put"`
	HintRefreshes uint64 `json:"hint_refreshes" prom:"lesslog_gateway_write_plane_total,event=hint_refresh"`
	ChunksPut     uint64 `json:"chunks_put" prom:"lesslog_gateway_write_plane_total,event=chunk"`
	PutAborts     uint64 `json:"put_aborts" prom:"lesslog_gateway_write_plane_total,event=abort"`

	// ChecksummedBytes: payload bytes CRC-32C ran over at this edge, chunked
	// gets and puts together — once per byte moved (docs/ROUTING.md
	// "Checksums").
	ChecksummedBytes uint64 `json:"checksummed_bytes" prom:"lesslog_gateway_checksummed_bytes_total"`
}

// StatSnapshot is the gateway's structured status, the edge counterpart
// of netnode.StatSnapshot.
type StatSnapshot struct {
	Peers       []string `json:"peers"`
	PeersDown   []uint32 `json:"peers_detector_down" prom:"lesslog_gateway_entry_peers_down,gauge"` // entry-peer indexes
	CacheLen    int      `json:"cache_len" prom:"lesslog_gateway_cache_entries,gauge"`
	CacheCap    int      `json:"cache_cap" prom:"-"`
	HintLen     int      `json:"hint_len" prom:"lesslog_gateway_route_hints,gauge"`
	CacheTTLMS  float64  `json:"cache_ttl_ms" prom:"-"`
	MaxInFlight int      `json:"max_in_flight" prom:"-"`
	InFlight    int      `json:"in_flight" prom:"lesslog_gateway_in_flight,gauge"`

	// PipelineDepth is the number of pipelined client requests currently
	// being handled across the gateway's wire connections.
	PipelineDepth int64 `json:"pipeline_depth" prom:"lesslog_gateway_pipeline_depth,gauge"`

	// TransfersInFlight gauges chunked transfers currently reassembling;
	// StripeWidth is the replica fan-out of the most recent transfer.
	TransfersInFlight int64 `json:"transfers_in_flight" prom:"lesslog_gateway_transfers_in_flight,gauge"`
	StripeWidth       int64 `json:"stripe_width" prom:"lesslog_gateway_stripe_width,gauge"`

	// TraceRecorded/TraceNoted count traces retained in the edge trace
	// ring: head-sampled, and tail-retained slow/errored (both 0 with the
	// trace plane disabled).
	TraceRecorded uint64 `json:"trace_recorded" prom:"lesslog_gateway_traces_total,class=recorded"`
	TraceNoted    uint64 `json:"trace_noted" prom:"lesslog_gateway_traces_total,class=noted"`

	Counters CountersSnapshot `json:"counters"`

	GetLatencyMS   metrics.DistStat `json:"get_latency_ms" prom:"lesslog_gateway_get_latency_seconds,scale=1e-9"`
	WriteLatencyMS metrics.DistStat `json:"write_latency_ms" prom:"lesslog_gateway_write_latency_seconds,scale=1e-9"`
	QueueWaitMS    metrics.DistStat `json:"queue_wait_ms" prom:"lesslog_gateway_queue_wait_seconds,scale=1e-9"`

	// The embedded transport's counters: in the JSON, off /metrics.
	Transport transport.CountersSnapshot `json:"transport" prom:"-"`
}

// countersSnapshot copies the counters' current values: the edge's own and
// the ladder's by name, then the ones the edge has always published under
// a name of its own, and the chunk planes' transfer counters.
func (g *Gateway) countersSnapshot() CountersSnapshot {
	c, fetch, put := &g.counters, g.client.StreamStats(), g.client.UploadStats()
	var s CountersSnapshot
	metrics.Load(&s, c, fetch)
	s.Evictions = g.cache.c.evictions.Value()
	s.Invalidations = g.cache.c.invalidations.Value()
	s.StaleRejected = g.cache.c.staleRejected.Value()
	s.ChunkedFills = c.ChunkedGets.Value()
	s.OversizeRejected = c.OversizeRejects.Value()
	s.ChunksPut = put.ChunksSent.Load()
	s.PutAborts = put.Aborts.Load()
	s.ChecksummedBytes += put.ChecksummedBytes.Load() // beside the fetcher's, loaded by name
	return s
}

// StatSnapshot captures the gateway's current observable state.
func (g *Gateway) StatSnapshot() StatSnapshot {
	fetch := g.client.StreamStats()
	s := StatSnapshot{
		Peers:             append([]string(nil), g.peers...),
		PeersDown:         g.det.DownIDs(),
		CacheLen:          g.cache.len(),
		HintLen:           g.HintLen(),
		CacheCap:          g.cfg.CacheSize,
		CacheTTLMS:        float64(g.cfg.CacheTTL) * metrics.NsToMS,
		MaxInFlight:       g.cfg.MaxInFlight,
		InFlight:          g.adm.inFlight(),
		PipelineDepth:     g.pipelineDepth.Load(),
		TransfersInFlight: fetch.InFlight.Load(),
		StripeWidth:       fetch.StripeWidth.Load(),
		TraceRecorded:     g.ring.Recorded(),
		TraceNoted:        g.ring.Noted(),
		Counters:          g.countersSnapshot(),

		GetLatencyMS:   g.obs.get.Snapshot().DistStat(metrics.NsToMS),
		WriteLatencyMS: g.obs.write.Snapshot().DistStat(metrics.NsToMS),
		Transport:      g.tr.Counters().Snapshot(),
	}
	if g.adm != nil {
		s.QueueWaitMS = g.adm.queueWait.Snapshot().DistStat(metrics.NsToMS)
	}
	return s
}

// StatLine renders the one-line "k=v" summary, the edge counterpart of a
// peer's stat line.
func (g *Gateway) StatLine() string {
	c := g.countersSnapshot()
	return fmt.Sprintf(
		"gateway peers=%d cache=%d/%d hits=%d misses=%d coalesced=%d stale-served=%d shed=%d fetch-errors=%d %s",
		len(g.peers), g.cache.len(), g.cfg.CacheSize,
		c.Hits, c.Misses, c.Coalesced, c.StaleServed, c.Shed, c.FetchErrors,
		g.tr.Counters())
}

// WritePrometheus writes the gateway's metrics in Prometheus text format:
// every tagged field of StatSnapshot. docs/GATEWAY.md lists them.
func (g *Gateway) WritePrometheus(w io.Writer) {
	metrics.WritePrometheus(w, "", g.StatSnapshot())
}

// Admin is a running gateway admin HTTP server.
type Admin struct {
	srv *http.Server
	ln  net.Listener
}

// ServeAdmin starts the gateway's admin HTTP server on addr
// ("127.0.0.1:0" picks a free port; Addr reports it).
func (g *Gateway) ServeAdmin(addr string) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: admin listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(g.StatSnapshot())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(g.TraceSnapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a := &Admin{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go a.srv.Serve(ln)
	g.log.Info("admin endpoint listening", "addr", ln.Addr().String())
	return a, nil
}

// Addr returns the admin server's bound address.
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close shuts the admin server down immediately.
func (a *Admin) Close() error { return a.srv.Close() }
