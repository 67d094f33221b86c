// Package fleet is the cluster half of the observability plane
// (docs/OBSERVABILITY.md): it scrapes every peer's structured stat
// snapshot over the wire and merges them into one cluster view — the
// engine behind `lesslog-top`. Per-peer DistStat summaries cannot be
// combined (quantiles do not add), so aggregation works on the raw
// per-kind histogram bucket vectors each snapshot carries
// (HandlerLatencyHist): bucket vectors merge exactly, and the fleet
// percentiles fall out of the merged distribution with the same error
// bound a single peer reports. Replica spread and the hot-name ranking
// come from the per-name inventories (§6 serve counters), summed across
// holders.
package fleet

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"lesslog/internal/benchjson"
	"lesslog/internal/metrics"
	"lesslog/internal/netnode"
)

// PeerStat is one scraped peer: its address, its snapshot, and the
// scrape error if it could not be reached (Stat is zero then).
type PeerStat struct {
	Addr string
	Stat netnode.StatSnapshot
	Err  error
}

// Scrape fetches every peer's full stat snapshot (inventory included)
// concurrently. The result preserves addr order; unreachable peers carry
// their error rather than failing the sweep — a fleet view with a hole
// beats no view during an outage.
func Scrape(addrs []string) []PeerStat {
	out := make([]PeerStat, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i].Addr = addr
			out[i].Stat, out[i].Err = netnode.NewClient(addr).StatSnapshotFull()
		}(i, addr)
	}
	wg.Wait()
	return out
}

// Dist is one merged fleet distribution, milliseconds for latencies.
type Dist struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

const nsToMS = 1e-6

func distOf(s metrics.HistogramSnapshot, scale float64) Dist {
	return Dist{
		Count: s.Count,
		Mean:  s.Mean() * scale,
		P50:   s.Quantile(0.5) * scale,
		P95:   s.Quantile(0.95) * scale,
		P99:   s.Quantile(0.99) * scale,
		Max:   float64(s.Max) * scale,
	}
}

// HotName is one row of the fleet-wide hot-name ranking: §6 serve
// counters summed across every holder, plus how many copies the fleet
// holds.
type HotName struct {
	Name   string `json:"name"`
	Hits   uint64 `json:"hits"`
	Copies int    `json:"copies"`
}

// Gauge is a min/mean/max spread of one instantaneous per-peer gauge.
type Gauge struct {
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	Total int64   `json:"total"`
}

// Cluster is the merged fleet view.
type Cluster struct {
	Peers       int      `json:"peers"`
	Unreachable []string `json:"unreachable,omitempty"`
	LivePeers   int      `json:"live_peers"` // max over peers' own views

	// Store totals and the copies-per-name spread (replica counts from
	// the scraped inventories; key = copies held, value = names).
	Inserted    int         `json:"inserted"`
	Replicas    int         `json:"replicas"`
	ReplicaDist map[int]int `json:"replica_dist"`

	// Summed lifetime counters.
	Requests  uint64 `json:"requests"`
	Forwards  uint64 `json:"forwards"`
	Served    uint64 `json:"served"`
	Faults    uint64 `json:"faults"`
	Stored    uint64 `json:"stored"`
	Updated   uint64 `json:"updated"`
	Broadcast uint64 `json:"broadcast"`

	// Repair plane totals: counters summed, deficit and tombstones summed
	// gauges, TTFR the worst last-completed episode any peer reports.
	RepairProbes    uint64  `json:"repair_probes"`
	Repaired        uint64  `json:"repaired"`
	RepairPulled    uint64  `json:"repair_pulled"`
	RepairErased    uint64  `json:"repair_erased"`
	RepairSkipped   uint64  `json:"repair_skipped"`
	RepairDeficit   int64   `json:"repair_deficit"`
	Tombstones      int     `json:"tombstones"`
	RepairTTFRMSMax float64 `json:"repair_ttfr_ms_max"`

	// Chunked data plane totals (docs/ROUTING.md): ranged chunks served
	// across the fleet, payload bytes they moved, version-pin refusals,
	// and replica-set locate answers.
	ChunksServed  uint64 `json:"chunks_served"`
	ChunkBytes    uint64 `json:"chunk_bytes"`
	ChunkRefusals uint64 `json:"chunk_refusals"`
	LocateSets    uint64 `json:"locate_sets"`

	// Write plane totals (docs/ROUTING.md): staged upload chunks and
	// bytes, abandoned staging sessions, notify-driven replica pulls,
	// hint-guided write entries, and the payload bytes broadcast trees
	// actually carried.
	WriteChunks    uint64 `json:"write_chunks"`
	WriteBytes     uint64 `json:"write_bytes"`
	StagedAborts   uint64 `json:"staged_aborts"`
	NotifyPulls    uint64 `json:"notify_pulls"`
	WritesAtHolder uint64 `json:"writes_at_holder"`
	WritesRemote   uint64 `json:"writes_remote"`
	FanoutBytes    uint64 `json:"fanout_bytes"`

	// Trace plane totals.
	TraceRecorded uint64 `json:"trace_recorded"`
	TraceNoted    uint64 `json:"trace_noted"`

	// PipelineDepth and FanoutActive spread the instantaneous per-peer
	// gauges — a skewed max against a low mean is the overload signature.
	PipelineDepth Gauge `json:"pipeline_depth"`
	FanoutActive  Gauge `json:"fanout_active"`

	// HandlerLatencyMS is the per-kind handler latency of the whole
	// fleet: every peer's raw histogram merged, then quantiled.
	HandlerLatencyMS map[string]Dist `json:"handler_latency_ms"`

	// TopNames ranks the fleet's hottest names by summed serve counters.
	TopNames []HotName `json:"top_names,omitempty"`
}

// Aggregate merges scraped snapshots into one cluster view, ranking at
// most topK hot names (topK <= 0 selects 10). Unreachable peers are
// listed and skipped.
func Aggregate(stats []PeerStat, topK int) Cluster {
	if topK <= 0 {
		topK = 10
	}
	c := Cluster{
		ReplicaDist:      map[int]int{},
		HandlerLatencyMS: map[string]Dist{},
	}
	merged := map[string]metrics.HistogramSnapshot{}
	copies := map[string]int{}
	hits := map[string]uint64{}
	first := true
	for _, ps := range stats {
		if ps.Err != nil {
			c.Unreachable = append(c.Unreachable, ps.Addr)
			continue
		}
		s := ps.Stat
		c.Peers++
		if s.LivePeers > c.LivePeers {
			c.LivePeers = s.LivePeers
		}
		c.Inserted += s.Inserted
		c.Replicas += s.Replicas
		c.Requests += s.Requests
		c.Forwards += s.Forwards
		c.Served += s.Served
		c.Faults += s.Faults
		c.Stored += s.Stored
		c.Updated += s.Updated
		c.Broadcast += s.Broadcast
		c.RepairProbes += s.RepairProbes
		c.Repaired += s.Repaired
		c.RepairPulled += s.RepairPulled
		c.RepairErased += s.RepairErased
		c.RepairSkipped += s.RepairSkipped
		c.RepairDeficit += s.RepairDeficit
		c.Tombstones += s.Tombstones
		if s.RepairTTFRMS > c.RepairTTFRMSMax {
			c.RepairTTFRMSMax = s.RepairTTFRMS
		}
		c.ChunksServed += s.ChunksServed
		c.ChunkBytes += s.ChunkBytes
		c.ChunkRefusals += s.ChunkRefusals
		c.LocateSets += s.LocateSets
		c.WriteChunks += s.WriteChunks
		c.WriteBytes += s.WriteBytes
		c.StagedAborts += s.StagedAborts
		c.NotifyPulls += s.NotifyPulls
		c.WritesAtHolder += s.WritesAtHolder
		c.WritesRemote += s.WritesRemote
		c.FanoutBytes += s.FanoutBytes
		c.TraceRecorded += s.TraceRecorded
		c.TraceNoted += s.TraceNoted
		c.PipelineDepth = c.PipelineDepth.fold(s.PipelineDepth, first)
		c.FanoutActive = c.FanoutActive.fold(s.FanoutActive, first)
		first = false
		for kind, snap := range s.HandlerLatencyHist {
			m := merged[kind]
			m.Merge(&snap)
			merged[kind] = m
		}
		for _, r := range s.Inventory {
			copies[r.Name]++
			hits[r.Name] += r.Hits
		}
	}
	if c.Peers > 0 {
		c.PipelineDepth.Mean = float64(c.PipelineDepth.Total) / float64(c.Peers)
		c.FanoutActive.Mean = float64(c.FanoutActive.Total) / float64(c.Peers)
	}
	for kind, snap := range merged {
		c.HandlerLatencyMS[kind] = distOf(snap, nsToMS)
	}
	for _, n := range copies {
		c.ReplicaDist[n]++
	}
	for name, h := range hits {
		if h == 0 {
			continue
		}
		c.TopNames = append(c.TopNames, HotName{Name: name, Hits: h, Copies: copies[name]})
	}
	sort.Slice(c.TopNames, func(i, j int) bool {
		if c.TopNames[i].Hits != c.TopNames[j].Hits {
			return c.TopNames[i].Hits > c.TopNames[j].Hits
		}
		return c.TopNames[i].Name < c.TopNames[j].Name
	})
	if len(c.TopNames) > topK {
		c.TopNames = c.TopNames[:topK]
	}
	return c
}

// fold accumulates one peer's gauge value into the spread.
func (g Gauge) fold(v int64, first bool) Gauge {
	if first || v < g.Min {
		g.Min = v
	}
	if first || v > g.Max {
		g.Max = v
	}
	g.Total += v
	return g
}

// RecordBench lands the merged view in BENCH_obs_cluster.json through
// internal/benchjson when BENCH_JSON_DIR is set (no-op otherwise) — the
// machine-readable artifact the obs-cluster bench target commits.
func RecordBench(c Cluster) error {
	extra := map[string]float64{
		"peers":           float64(c.Peers),
		"inserted":        float64(c.Inserted),
		"replicas":        float64(c.Replicas),
		"requests":        float64(c.Requests),
		"served":          float64(c.Served),
		"faults":          float64(c.Faults),
		"repair_probes":   float64(c.RepairProbes),
		"tombstones":      float64(c.Tombstones),
		"chunks_served":   float64(c.ChunksServed),
		"chunk_bytes":     float64(c.ChunkBytes),
		"trace_recorded":  float64(c.TraceRecorded),
		"trace_noted":     float64(c.TraceNoted),
		"repair_ttfr_max": c.RepairTTFRMSMax,
	}
	for kind, d := range c.HandlerLatencyMS {
		extra[kind+"_p50_ms"] = d.P50
		extra[kind+"_p95_ms"] = d.P95
		extra[kind+"_p99_ms"] = d.P99
	}
	return benchjson.Record("obs_cluster", benchjson.Result{
		Name:  "cluster_merge",
		Extra: extra,
	})
}

// Render writes the terminal view of a cluster — the lesslog-top screen
// body.
func Render(w io.Writer, c Cluster) {
	fmt.Fprintf(w, "lesslog cluster: %d peers up", c.Peers)
	if len(c.Unreachable) > 0 {
		fmt.Fprintf(w, ", %d unreachable %v", len(c.Unreachable), c.Unreachable)
	}
	fmt.Fprintf(w, "  (fabric view: %d live)\n", c.LivePeers)
	fmt.Fprintf(w, "files: %d inserted  %d replicas  replica spread:", c.Inserted, c.Replicas)
	var ns []int
	for n := range c.ReplicaDist {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		fmt.Fprintf(w, " %dx=%d", n, c.ReplicaDist[n])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "traffic: req=%d fwd=%d served=%d faults=%d stored=%d updated=%d bcast-legs=%d\n",
		c.Requests, c.Forwards, c.Served, c.Faults, c.Stored, c.Updated, c.Broadcast)
	fmt.Fprintf(w, "repair: probes=%d pushed=%d pulled=%d erased=%d skipped=%d deficit=%dB tombstones=%d ttfr-max=%.1fms\n",
		c.RepairProbes, c.Repaired, c.RepairPulled, c.RepairErased, c.RepairSkipped,
		c.RepairDeficit, c.Tombstones, c.RepairTTFRMSMax)
	fmt.Fprintf(w, "chunks: served=%d bytes=%d refused=%d locate-sets=%d\n",
		c.ChunksServed, c.ChunkBytes, c.ChunkRefusals, c.LocateSets)
	fmt.Fprintf(w, "writes: chunks=%d bytes=%d aborts=%d at-holder=%d remote=%d notify-pulls=%d fanout-bytes=%d\n",
		c.WriteChunks, c.WriteBytes, c.StagedAborts, c.WritesAtHolder, c.WritesRemote,
		c.NotifyPulls, c.FanoutBytes)
	fmt.Fprintf(w, "traces: recorded=%d noted=%d   pipeline depth: min=%d mean=%.1f max=%d   fanout legs: min=%d mean=%.1f max=%d\n",
		c.TraceRecorded, c.TraceNoted,
		c.PipelineDepth.Min, c.PipelineDepth.Mean, c.PipelineDepth.Max,
		c.FanoutActive.Min, c.FanoutActive.Mean, c.FanoutActive.Max)

	fmt.Fprintf(w, "\n%-10s %10s %10s %10s %10s %10s\n", "handler", "count", "p50ms", "p95ms", "p99ms", "maxms")
	var kinds []string
	for k := range c.HandlerLatencyMS {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		d := c.HandlerLatencyMS[k]
		fmt.Fprintf(w, "%-10s %10d %10.3f %10.3f %10.3f %10.3f\n", k, d.Count, d.P50, d.P95, d.P99, d.Max)
	}
	if len(c.TopNames) > 0 {
		fmt.Fprintf(w, "\n%-32s %10s %7s\n", "hot name", "hits", "copies")
		for _, h := range c.TopNames {
			fmt.Fprintf(w, "%-32s %10d %7d\n", h.Name, h.Hits, h.Copies)
		}
	}
}
