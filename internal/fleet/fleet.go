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

// HotName is one row of the fleet-wide hot-name ranking: §6 serve
// counters summed across every holder, plus how many copies the fleet
// holds.
type HotName struct {
	Name   string `json:"name"`
	Hits   uint64 `json:"hits"`
	Copies int    `json:"copies"`
}

// Cluster is the merged fleet view. Every peer metric with a fleet rule
// (the tags of netnode.StatSnapshot) lands here by metrics.Merge: the
// embedded netnode.Totals holds the sums, the fields beside it the maxes
// and spreads.
type Cluster struct {
	Peers       int      `json:"peers"`
	Unreachable []string `json:"unreachable,omitempty"`
	LivePeers   int      `json:"live_peers"` // max over peers' own views

	netnode.Totals

	// ReplicaDist is the copies-per-name spread (replica counts from the
	// scraped inventories; key = copies held, value = names).
	ReplicaDist map[int]int `json:"replica_dist"`

	// RepairTTFRMSMax is the worst last-completed time-to-full-replication
	// episode any peer reports.
	RepairTTFRMSMax float64 `json:"repair_ttfr_ms_max"`

	// PipelineDepth and FanoutActive spread the instantaneous per-peer
	// gauges — a skewed max against a low mean is the overload signature.
	PipelineDepth metrics.Spread `json:"pipeline_depth"`
	FanoutActive  metrics.Spread `json:"fanout_active"`

	// HandlerLatencyMS is the per-kind handler latency of the whole
	// fleet: every peer's raw histogram merged, then quantiled.
	HandlerLatencyMS map[string]metrics.DistStat `json:"handler_latency_ms"`

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
		HandlerLatencyMS: map[string]metrics.DistStat{},
	}
	merged := map[string]metrics.HistogramSnapshot{}
	copies := map[string]int{}
	hits := map[string]uint64{}
	for _, ps := range stats {
		if ps.Err != nil {
			c.Unreachable = append(c.Unreachable, ps.Addr)
			continue
		}
		s := ps.Stat
		metrics.Merge(&c, s, c.Peers)
		c.Peers++
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
	for kind, snap := range merged {
		c.HandlerLatencyMS[kind] = snap.DistStat(metrics.NsToMS)
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

// Render writes the terminal view of a cluster — the lesslog-top screen
// body: one line per plane of merged peer metrics, each under its JSON
// key, then the fleet's handler latencies and hottest names.
func Render(w io.Writer, c Cluster) {
	fmt.Fprintf(w, "lesslog cluster: %d peers up", c.Peers)
	if len(c.Unreachable) > 0 {
		fmt.Fprintf(w, ", %d unreachable %v", len(c.Unreachable), c.Unreachable)
	}
	plane, values := "", metrics.Fields(c)
	for _, d := range metrics.Declarations(netnode.StatSnapshot{}) {
		if d.Merge == "" {
			continue
		}
		if d.Plane != plane {
			plane = d.Plane
			fmt.Fprintf(w, "\n%s:", plane)
		}
		if v := values[d.As]; v.CanFloat() {
			fmt.Fprintf(w, " %s=%.1f", d.As, v.Float())
		} else {
			fmt.Fprintf(w, " %s=%v", d.As, v)
		}
	}
	fmt.Fprint(w, "\nreplica spread:")
	var ns []int
	for n := range c.ReplicaDist {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		fmt.Fprintf(w, " %dx=%d", n, c.ReplicaDist[n])
	}
	fmt.Fprintln(w)

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
