package main

import (
	"runtime"
	"syscall"

	"lesslog/internal/gateway"
	"lesslog/internal/metrics"
	"lesslog/internal/netnode"
	"lesslog/internal/transport"
)

// layers is every public snapshot the program offers, taken just outside
// the measured window; layerMetrics reports the difference of two.
type layers struct {
	gw       gateway.StatSnapshot
	peers    []netnode.StatSnapshot
	counters transport.CountersSnapshot                  // gateway + client + every peer
	rpc      map[string]metrics.HistogramSnapshot        // same transports, per kind
	handler  map[string]metrics.HistogramSnapshot        // every peer, per kind
	stream   struct{ transfers, chunks, retries uint64 } // the edge's fetcher
	stripe   int64
	hintLen  int
	walBytes int64
	sealed   int
	cpts     int
}

func takeLayers(f *fabric, c *client) *layers {
	l := &layers{
		gw:      f.gw.StatSnapshot(),
		rpc:     map[string]metrics.HistogramSnapshot{},
		handler: map[string]metrics.HistogramSnapshot{},
	}
	trs := []*transport.Transport{f.gw.Transport()}
	if c.tr != nil {
		trs = append(trs, c.tr)
	}
	for _, p := range f.peers {
		s := p.StatSnapshot()
		l.peers = append(l.peers, s)
		mergeHists(l.handler, s.HandlerLatencyHist)
		trs = append(trs, p.Transport())
	}
	for _, tr := range trs {
		s := tr.Counters().Snapshot()
		l.counters.Dials += s.Dials
		l.counters.Reuses += s.Reuses
		l.counters.Retries += s.Retries
		l.counters.Timeouts += s.Timeouts
		l.counters.Failures += s.Failures
		mergeHists(l.rpc, tr.LatencySnapshots())
	}
	if c.nn != nil {
		// A locate workload's chunk plane is the client's own fetcher.
		ss := c.nn.StreamStats()
		l.stream.transfers, l.stream.chunks, l.stream.retries =
			ss.Transfers.Load(), ss.ChunksFetched.Load(), ss.ChunkRetries.Load()
		l.stripe = ss.StripeWidth.Load()
		l.hintLen = c.hints.Len()
	} else {
		l.stream.transfers, l.stream.chunks, l.stream.retries =
			l.gw.Counters.ChunkedFills, l.gw.Counters.ChunksFetched, l.gw.Counters.ChunkRetries
		l.stripe = l.gw.StripeWidth
		l.hintLen = l.gw.HintLen
	}
	l.walBytes, l.sealed, l.cpts = dirUsage(f.dataDir)
	return l
}

func mergeHists(into, from map[string]metrics.HistogramSnapshot) {
	for kind, h := range from {
		sum := into[kind]
		sum.Merge(&h)
		into[kind] = sum
	}
}

// subHist is the samples b saw after a: the histograms are cumulative, so
// the window's distribution is the bucket-wise difference.
func subHist(b, a metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max}
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics fills the per-layer metrics that come from differences
// across the measured window; the traced pass adds the probed ones.
func layerMetrics(m map[string]float64, st *state, w *window, a, b *layers, m0, m1 *runtime.MemStats) {
	sp := st.spec
	ops := float64(w.ok())
	gets := float64(len(w.lat[opGet]))
	updates := float64(len(w.lat[opUpdate]))
	u := func(after, before uint64) float64 { return float64(after - before) }

	first, last := w.marks[0], w.marks[len(w.marks)-1]
	m["client.failed_share"] = ratio(float64(w.failed), float64(w.attempted))
	// Whole-window means: the fabric's log compaction comes in waves a few
	// seconds long, and a median over slices flips between a calm and a busy
	// value with the wave's phase, where the mean holds (CALIBRATION.md).
	m["client.ops_per_s"] = ops / w.elapsed().Seconds()
	m["client.goodput_mib_s"] = float64(last.bytes) / (1 << 20) / w.elapsed().Seconds()
	m["client.cpu_ms_per_op"] = ratio(float64(last.cpu-first.cpu)/1e6, ops)
	getQ := quantilesMS(w.lat[opGet], 0.5, sp.tailQ)
	updateQ := quantilesMS(w.lat[opUpdate], 0.5, sp.tailQ)
	m["client.get_p50_ms"], m["client.get_tail_ms"] = getQ[0], getQ[1]
	m["client.update_p50_ms"], m["client.update_tail_ms"] = updateQ[0], updateQ[1]
	// The whole window's allocation, log compaction and all, beside the
	// end-to-end median slice.
	m["client.alloc_mean_kib_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, ops)
	// The live heap as the collector's own cycles saw it through the window:
	// one forced reading at the end would catch a compaction's replay buffer
	// in one run and miss it in the next.
	m["client.heap_live_mib"] = w.perSlice(func(_, b mark) float64 { return float64(b.live) / (1 << 20) })
	m["client.get_mean_ms"] = meanMS(w.lat[opGet])
	m["client.update_mean_ms"] = meanMS(w.lat[opUpdate])
	m["client.insert_p50_ms"] = quantileMS(w.lat[opInsert], 0.5)
	m["client.delete_p50_ms"] = quantileMS(w.lat[opDelete], 0.5)

	ga, gb := a.gw.Counters, b.gw.Counters
	misses := u(gb.Misses, ga.Misses)
	m["gateway.hit_ratio"] = ratio(u(gb.Hits, ga.Hits), u(gb.Hits, ga.Hits)+misses)
	m["gateway.coalesced"] = u(gb.Coalesced, ga.Coalesced)
	m["gateway.shed"] = u(gb.Shed, ga.Shed)
	m["gateway.stale_served"] = u(gb.StaleServed, ga.StaleServed)
	m["gateway.fetch_errors"] = u(gb.FetchErrors, ga.FetchErrors)
	m["gateway.hint_hit_ratio"] = ratio(u(gb.HintHits, ga.HintHits), misses)
	m["gateway.hint_stale"] = u(gb.HintStale, ga.HintStale)
	m["gateway.locates_per_miss"] = ratio(u(gb.Locates, ga.Locates), misses)
	m["gateway.chunk_retries"] = u(gb.ChunkRetries, ga.ChunkRetries)
	// The queue-wait histogram is only published summarized, so this p50
	// covers the run so far (set-up and warm-up too), not the window alone.
	m["gateway.queue_wait_p50_ms"] = b.gw.QueueWaitMS.P50

	m["routehint.len"] = float64(b.hintLen)

	var rpcs uint64
	for kind, h := range b.rpc {
		rpcs += h.Count - a.rpc[kind].Count
	}
	m["transport.rpcs_per_op"] = ratio(float64(rpcs), ops)
	m["transport.dials"] = u(b.counters.Dials, a.counters.Dials)
	m["transport.reuses"] = u(b.counters.Reuses, a.counters.Reuses)
	m["transport.retries"] = u(b.counters.Retries, a.counters.Retries)
	m["transport.timeouts"] = u(b.counters.Timeouts, a.counters.Timeouts)
	m["transport.failures"] = u(b.counters.Failures, a.counters.Failures)
	for _, k := range rpcKinds {
		rpc := subHist(b.rpc[k.wire], a.rpc[k.wire])
		m["transport.rpc_p50_ms."+k.metric] = rpc.Quantile(0.5) / 1e6
		handler := subHist(b.handler[k.wire], a.handler[k.wire])
		m["netnode.handler_p50_ms."+k.metric] = handler.Quantile(0.5) / 1e6
	}

	var d netnode.StatSnapshot // the eight peers' counters, summed over the window
	var served []float64
	var serveP50, forwardP50, serveN, forwardN float64
	for i := range b.peers {
		pa, pb := a.peers[i], b.peers[i]
		d.Requests += pb.Requests - pa.Requests
		d.Forwards += pb.Forwards - pa.Forwards
		d.RelayedBytes += pb.RelayedBytes - pa.RelayedBytes
		d.DirectMisses += pb.DirectMisses - pa.DirectMisses
		d.ChunksServed += pb.ChunksServed - pa.ChunksServed
		d.ChunkRefusals += pb.ChunkRefusals - pa.ChunkRefusals
		d.FanoutBytes += pb.FanoutBytes - pa.FanoutBytes
		d.NotifyPulls += pb.NotifyPulls - pa.NotifyPulls
		d.WritesAtHolder += pb.WritesAtHolder - pa.WritesAtHolder
		d.WritesRemote += pb.WritesRemote - pa.WritesRemote
		d.StagedAborts += pb.StagedAborts - pa.StagedAborts
		d.ProtoErrors += pb.ProtoErrors - pa.ProtoErrors
		// Chunk serves count as direct serves too, so Served alone would
		// miss the chunk plane's share of the load.
		served = append(served, u(pb.Served, pa.Served)+u(pb.DirectServed, pa.DirectServed))
		// Serve and forward latency are published summarized per peer: the
		// fleet figure is their count-weighted mean of p50s over the run so far.
		serveP50 += pb.ServeLatencyMS.P50 * float64(pb.ServeLatencyMS.Count)
		serveN += float64(pb.ServeLatencyMS.Count)
		forwardP50 += pb.ForwardLatencyMS.P50 * float64(pb.ForwardLatencyMS.Count)
		forwardN += float64(pb.ForwardLatencyMS.Count)
	}
	chunksPerFile := float64((sp.size + (1 << 20) - 1) >> 20)
	m["netnode.requests_per_op"] = ratio(float64(d.Requests), ops)
	m["netnode.forwards_per_op"] = ratio(float64(d.Forwards), ops)
	m["netnode.relayed_bytes_per_op"] = ratio(float64(d.RelayedBytes), ops)
	m["netnode.direct_misses"] = float64(d.DirectMisses)
	// Replicas pull a notified body through the same fetch handler; take
	// their chunks out so this is what the clients' gets were served.
	m["netnode.chunks_served_per_get"] = ratio(float64(d.ChunksServed)-float64(d.NotifyPulls)*chunksPerFile, gets)
	m["netnode.chunk_refusals"] = float64(d.ChunkRefusals)
	m["netnode.fanout_bytes_per_update"] = ratio(float64(d.FanoutBytes), updates)
	m["netnode.notify_pulls_per_update"] = ratio(float64(d.NotifyPulls), updates)
	m["netnode.writes_at_holder_ratio"] = ratio(float64(d.WritesAtHolder), float64(d.WritesAtHolder+d.WritesRemote))
	m["netnode.staged_aborts"] = float64(d.StagedAborts)
	m["netnode.proto_errors"] = float64(d.ProtoErrors)
	m["netnode.serve_p50_ms"] = ratio(serveP50, serveN)
	m["netnode.forward_p50_ms"] = ratio(forwardP50, forwardN)
	var maxServed, sumServed float64
	for _, s := range served {
		maxServed = max(maxServed, s)
		sumServed += s
	}
	m["netnode.load_imbalance"] = ratio(maxServed, sumServed/float64(len(served)))

	m["stream.chunks_per_transfer"] = ratio(u(b.stream.chunks, a.stream.chunks), u(b.stream.transfers, a.stream.transfers))
	m["stream.chunk_retries"] = u(b.stream.retries, a.stream.retries)
	m["stream.stripe_width"] = float64(b.stripe)

	userBytes := float64(len(st.names)) * float64(sp.size)
	m["store.heap_bytes_per_user_byte"] = ratio(m["client.heap_live_mib"]*(1<<20), userBytes)
	written := (updates + float64(len(w.lat[opInsert]))) * float64(sp.size)
	m["wal.bytes_per_user_byte"] = ratio(float64(b.walBytes-a.walBytes), written)
	m["wal.sealed_segments"] = float64(b.sealed)
	m["wal.checkpoints"] = float64(b.cpts)

	m["process.cpu_util"] = ratio(float64(last.cpu-first.cpu), float64(last.t.Sub(first.t)))
	m["process.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["process.gc_pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["process.peak_rss_mib"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["process.goroutines"] = float64(runtime.NumGoroutine())
}
