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
	Batches     metrics.AtomicCounter // KindBatch frames sent
	Passthrough metrics.AtomicCounter // uninterposed requests forwarded
	PeersDown   metrics.AtomicCounter // entry peers declared down
	PeersUp     metrics.AtomicCounter // entry peers restored
	ProtoErrors metrics.AtomicCounter // client-connection decode/write failures
}

// CountersSnapshot is the plain-value copy of Counters plus the cache's
// internal counters, JSON-ready.
type CountersSnapshot struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Coalesced     uint64 `json:"coalesced"`
	StaleServed   uint64 `json:"stale_served"`
	Shed          uint64 `json:"shed"`
	FetchErrors   uint64 `json:"fetch_errors"`
	Inserts       uint64 `json:"inserts"`
	Updates       uint64 `json:"updates"`
	Deletes       uint64 `json:"deletes"`
	Batches       uint64 `json:"batches"`
	Passthrough   uint64 `json:"passthrough"`
	PeersDown     uint64 `json:"peers_down"`
	PeersUp       uint64 `json:"peers_up"`
	ProtoErrors   uint64 `json:"proto_errors"`
	Evictions     uint64 `json:"cache_evictions"`
	Invalidations uint64 `json:"cache_invalidations"`
	StaleRejected uint64 `json:"cache_stale_rejected"`

	HintHits  uint64 `json:"hint_hits"`
	HintStale uint64 `json:"hint_stale"`
	Locates   uint64 `json:"locates"`
	Relays    uint64 `json:"relays"`

	ChunkedFills     uint64 `json:"chunked_fills"`
	OversizeRejected uint64 `json:"oversize_rejected"`
	ChunksFetched    uint64 `json:"chunks_fetched"`
	ChunkRetries     uint64 `json:"chunk_retries"`

	ChunkedPuts   uint64 `json:"chunked_puts"`
	HintRefreshes uint64 `json:"hint_refreshes"`
	ChunksPut     uint64 `json:"chunks_put"`
	PutAborts     uint64 `json:"put_aborts"`
}

// StatSnapshot is the gateway's structured status, the edge counterpart
// of netnode.StatSnapshot.
type StatSnapshot struct {
	Peers       []string `json:"peers"`
	PeersDown   []uint32 `json:"peers_detector_down"` // entry-peer indexes
	CacheLen    int      `json:"cache_len"`
	CacheCap    int      `json:"cache_cap"`
	HintLen     int      `json:"hint_len"`
	CacheTTLMS  float64  `json:"cache_ttl_ms"`
	MaxInFlight int      `json:"max_in_flight"`
	InFlight    int      `json:"in_flight"`

	// PipelineDepth is the number of pipelined client requests currently
	// being handled across the gateway's wire connections.
	PipelineDepth int64 `json:"pipeline_depth"`

	// TransfersInFlight gauges chunked transfers currently reassembling;
	// StripeWidth is the replica fan-out of the most recent transfer.
	TransfersInFlight int64 `json:"transfers_in_flight"`
	StripeWidth       int64 `json:"stripe_width"`

	// TraceRecorded/TraceNoted count traces retained in the edge trace
	// ring: head-sampled, and tail-retained slow/errored (both 0 with the
	// trace plane disabled).
	TraceRecorded uint64 `json:"trace_recorded"`
	TraceNoted    uint64 `json:"trace_noted"`

	Counters CountersSnapshot `json:"counters"`

	GetLatencyMS   DistStat `json:"get_latency_ms"`
	WriteLatencyMS DistStat `json:"write_latency_ms"`
	BatchLatencyMS DistStat `json:"batch_latency_ms"`
	QueueWaitMS    DistStat `json:"queue_wait_ms"`
	BatchSize      DistStat `json:"batch_size"`

	Transport transport.CountersSnapshot `json:"transport"`
}

// DistStat mirrors netnode's distribution summary (count, mean,
// quantiles), duplicated here so the gateway package does not import
// netnode just for a JSON shape.
type DistStat struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

const nsToMS = 1e-6

// distStat converts a snapshot, scaling samples by scale.
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

// countersSnapshot copies the counters' current values: the edge's own,
// the ladder's (under the names the edge has always published them by), and
// the chunk planes' transfer counters.
func (g *Gateway) countersSnapshot() CountersSnapshot {
	c, fetch, put := &g.counters, g.client.StreamStats(), g.client.UploadStats()
	return CountersSnapshot{
		Hits:          c.Hits.Value(),
		Misses:        c.Misses.Value(),
		Coalesced:     c.Coalesced.Value(),
		StaleServed:   c.StaleServed.Value(),
		Shed:          c.Shed.Value(),
		FetchErrors:   c.FetchErrors.Value(),
		Inserts:       c.Inserts.Value(),
		Updates:       c.Updates.Value(),
		Deletes:       c.Deletes.Value(),
		Batches:       c.Batches.Value(),
		Passthrough:   c.Passthrough.Value(),
		PeersDown:     c.PeersDown.Value(),
		PeersUp:       c.PeersUp.Value(),
		ProtoErrors:   c.ProtoErrors.Value(),
		Evictions:     g.cache.c.evictions.Value(),
		Invalidations: g.cache.c.invalidations.Value(),
		StaleRejected: g.cache.c.staleRejected.Value(),

		HintHits:  c.HintHits.Value(),
		HintStale: c.HintStale.Value(),
		Locates:   c.Locates.Value(),
		Relays:    c.Relays.Value(),

		ChunkedFills:     c.ChunkedGets.Value(),
		OversizeRejected: c.OversizeRejects.Value(),
		ChunksFetched:    fetch.ChunksFetched.Load(),
		ChunkRetries:     fetch.ChunkRetries.Load(),

		ChunkedPuts:   c.ChunkedPuts.Value(),
		HintRefreshes: c.HintRefreshes.Value(),
		ChunksPut:     put.ChunksSent.Load(),
		PutAborts:     put.Aborts.Load(),
	}
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
		CacheTTLMS:        float64(g.cfg.CacheTTL) * nsToMS,
		MaxInFlight:       g.cfg.MaxInFlight,
		InFlight:          g.adm.inFlight(),
		PipelineDepth:     g.pipelineDepth.Load(),
		TransfersInFlight: fetch.InFlight.Load(),
		StripeWidth:       fetch.StripeWidth.Load(),
		TraceRecorded:     g.ring.Recorded(),
		TraceNoted:        g.ring.Noted(),
		Counters:          g.countersSnapshot(),

		GetLatencyMS:   distStat(g.obs.get.Snapshot(), nsToMS),
		WriteLatencyMS: distStat(g.obs.write.Snapshot(), nsToMS),
		BatchLatencyMS: distStat(g.obs.batch.Snapshot(), nsToMS),
		BatchSize:      distStat(g.obs.batchSize.Snapshot(), 1),
		Transport:      g.tr.Counters().Snapshot(),
	}
	if g.adm != nil {
		s.QueueWaitMS = distStat(g.adm.queueWait.Snapshot(), nsToMS)
	}
	return s
}

// StatLine renders the one-line "k=v" summary, the edge counterpart of a
// peer's stat line.
func (g *Gateway) StatLine() string {
	c := g.countersSnapshot()
	return fmt.Sprintf(
		"gateway peers=%d cache=%d/%d hits=%d misses=%d coalesced=%d stale-served=%d shed=%d fetch-errors=%d batches=%d %s",
		len(g.peers), g.cache.len(), g.cfg.CacheSize,
		c.Hits, c.Misses, c.Coalesced, c.StaleServed, c.Shed, c.FetchErrors, c.Batches,
		g.tr.Counters())
}

// WritePrometheus writes the gateway's metrics in Prometheus text format.
// Families are documented in docs/GATEWAY.md.
func (g *Gateway) WritePrometheus(w io.Writer) {
	c := g.countersSnapshot()
	metrics.PrometheusFamily(w, "lesslog_gateway_requests_total", "counter",
		metrics.LabeledValue{Labels: `outcome="hit"`, Value: float64(c.Hits)},
		metrics.LabeledValue{Labels: `outcome="miss"`, Value: float64(c.Misses)},
		metrics.LabeledValue{Labels: `outcome="coalesced"`, Value: float64(c.Coalesced)},
		metrics.LabeledValue{Labels: `outcome="stale_served"`, Value: float64(c.StaleServed)},
		metrics.LabeledValue{Labels: `outcome="shed"`, Value: float64(c.Shed)})
	metrics.PrometheusFamily(w, "lesslog_gateway_writes_total", "counter",
		metrics.LabeledValue{Labels: `kind="insert"`, Value: float64(c.Inserts)},
		metrics.LabeledValue{Labels: `kind="update"`, Value: float64(c.Updates)},
		metrics.LabeledValue{Labels: `kind="delete"`, Value: float64(c.Deletes)})
	metrics.PrometheusFamily(w, "lesslog_gateway_fetch_errors_total", "counter",
		metrics.LabeledValue{Value: float64(c.FetchErrors)})
	metrics.PrometheusFamily(w, "lesslog_gateway_batches_total", "counter",
		metrics.LabeledValue{Value: float64(c.Batches)})
	metrics.PrometheusFamily(w, "lesslog_gateway_passthrough_total", "counter",
		metrics.LabeledValue{Value: float64(c.Passthrough)})
	metrics.PrometheusFamily(w, "lesslog_gateway_cache_events_total", "counter",
		metrics.LabeledValue{Labels: `event="eviction"`, Value: float64(c.Evictions)},
		metrics.LabeledValue{Labels: `event="invalidation"`, Value: float64(c.Invalidations)},
		metrics.LabeledValue{Labels: `event="stale_rejected"`, Value: float64(c.StaleRejected)})
	metrics.PrometheusFamily(w, "lesslog_gateway_peer_flips_total", "counter",
		metrics.LabeledValue{Labels: `direction="down"`, Value: float64(c.PeersDown)},
		metrics.LabeledValue{Labels: `direction="up"`, Value: float64(c.PeersUp)})
	metrics.PrometheusFamily(w, "lesslog_gateway_proto_errors_total", "counter",
		metrics.LabeledValue{Value: float64(c.ProtoErrors)})
	metrics.PrometheusFamily(w, "lesslog_gateway_traces_total", "counter",
		metrics.LabeledValue{Labels: `class="recorded"`, Value: float64(g.ring.Recorded())},
		metrics.LabeledValue{Labels: `class="noted"`, Value: float64(g.ring.Noted())})
	metrics.PrometheusFamily(w, "lesslog_gateway_locate_events_total", "counter",
		metrics.LabeledValue{Labels: `event="hint_hit"`, Value: float64(c.HintHits)},
		metrics.LabeledValue{Labels: `event="hint_stale"`, Value: float64(c.HintStale)},
		metrics.LabeledValue{Labels: `event="locate"`, Value: float64(c.Locates)},
		metrics.LabeledValue{Labels: `event="relay"`, Value: float64(c.Relays)})
	metrics.PrometheusFamily(w, "lesslog_gateway_chunk_events_total", "counter",
		metrics.LabeledValue{Labels: `event="fill"`, Value: float64(c.ChunkedFills)},
		metrics.LabeledValue{Labels: `event="chunk"`, Value: float64(c.ChunksFetched)},
		metrics.LabeledValue{Labels: `event="retry"`, Value: float64(c.ChunkRetries)})
	metrics.PrometheusFamily(w, "lesslog_gateway_oversize_rejected_total", "counter",
		metrics.LabeledValue{Value: float64(c.OversizeRejected)})
	metrics.PrometheusFamily(w, "lesslog_gateway_write_plane_total", "counter",
		metrics.LabeledValue{Labels: `event="chunked_put"`, Value: float64(c.ChunkedPuts)},
		metrics.LabeledValue{Labels: `event="chunk"`, Value: float64(c.ChunksPut)},
		metrics.LabeledValue{Labels: `event="abort"`, Value: float64(c.PutAborts)},
		metrics.LabeledValue{Labels: `event="hint_refresh"`, Value: float64(c.HintRefreshes)})

	metrics.PrometheusFamily(w, "lesslog_gateway_cache_entries", "gauge",
		metrics.LabeledValue{Value: float64(g.cache.len())})
	metrics.PrometheusFamily(w, "lesslog_gateway_route_hints", "gauge",
		metrics.LabeledValue{Value: float64(g.HintLen())})
	metrics.PrometheusFamily(w, "lesslog_gateway_in_flight", "gauge",
		metrics.LabeledValue{Value: float64(g.adm.inFlight())})
	metrics.PrometheusFamily(w, "lesslog_gateway_pipeline_depth", "gauge",
		metrics.LabeledValue{Value: float64(g.pipelineDepth.Load())})
	metrics.PrometheusFamily(w, "lesslog_gateway_entry_peers_down", "gauge",
		metrics.LabeledValue{Value: float64(g.det.DownCount())})
	fetch := g.client.StreamStats()
	metrics.PrometheusFamily(w, "lesslog_gateway_transfers_in_flight", "gauge",
		metrics.LabeledValue{Value: float64(fetch.InFlight.Load())})
	metrics.PrometheusFamily(w, "lesslog_gateway_stripe_width", "gauge",
		metrics.LabeledValue{Value: float64(fetch.StripeWidth.Load())})

	metrics.PrometheusHistogram(w, "lesslog_gateway_get_latency_seconds", 1e-9,
		metrics.LabeledHistogram{Snap: g.obs.get.Snapshot()})
	metrics.PrometheusHistogram(w, "lesslog_gateway_write_latency_seconds", 1e-9,
		metrics.LabeledHistogram{Snap: g.obs.write.Snapshot()})
	metrics.PrometheusHistogram(w, "lesslog_gateway_batch_latency_seconds", 1e-9,
		metrics.LabeledHistogram{Snap: g.obs.batch.Snapshot()})
	metrics.PrometheusHistogram(w, "lesslog_gateway_batch_size_subrequests", 1,
		metrics.LabeledHistogram{Snap: g.obs.batchSize.Snapshot()})
	if g.adm != nil {
		metrics.PrometheusHistogram(w, "lesslog_gateway_queue_wait_seconds", 1e-9,
			metrics.LabeledHistogram{Snap: g.adm.queueWait.Snapshot()})
	}
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
