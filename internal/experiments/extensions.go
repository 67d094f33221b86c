package experiments

// Extensions beyond the paper's own figures, each tied to a claim the
// paper makes but does not plot:
//
//   - HopComparison — §1/§7: LessLog's O(log N) lookup bound against the
//     Chord and CAN baselines it cites.
//   - ChurnTable — §8 future work: availability under dynamic churn for
//     increasing fault-tolerance degrees (b), via the discrete-event
//     scenario simulator.
//   - SensitivityM — how the replica count of Figure 5 scales with the
//     identifier width m at a fixed request rate.
//
// EXPERIMENTS.md marks these as extensions, not reproductions.

import (
	"errors"
	"fmt"
	"strings"

	"lesslog/internal/accesslog"
	"lesslog/internal/bitops"
	"lesslog/internal/can"
	"lesslog/internal/chord"
	"lesslog/internal/core"
	"lesslog/internal/dynsim"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/loadsim"
	"lesslog/internal/pastry"
	"lesslog/internal/ptree"
	"lesslog/internal/replication"
	"lesslog/internal/workload"
	"lesslog/internal/xrand"
)

// HopStats summarizes one lookup scheme's path lengths.
type HopStats struct {
	Scheme  string
	Mean    float64
	Max     int
	Hist    []int // hop count -> lookups
	Lookups int
}

// HopComparison measures lookup hops for LessLog, Chord and CAN (d=2)
// over the same n-node population at width m, with `lookups` random
// (origin, key) pairs each.
func HopComparison(m, lookups int, seed uint64) []HopStats {
	n := bitops.Slots(m)
	live := liveness.NewAllLive(m, n)
	out := make([]HopStats, 0, 3)

	// LessLog: route along live ancestors to a random target's root.
	rng := xrand.New(seed)
	ll := HopStats{Scheme: "lesslog"}
	for i := 0; i < lookups; i++ {
		target := bitops.PID(rng.Intn(n))
		origin := bitops.PID(rng.Intn(n))
		v := ptree.NewView(target, live, 0)
		_, _, hops := rootWalk(v, origin)
		ll.observe(hops)
	}
	out = append(out, ll)

	// Chord finger routing.
	ring := chord.New(m, live)
	rng = xrand.New(seed)
	ch := HopStats{Scheme: "chord"}
	for i := 0; i < lookups; i++ {
		key := uint32(rng.Intn(n))
		origin := bitops.PID(rng.Intn(n))
		_, hops := ring.Lookup(origin, key)
		ch.observe(hops)
	}
	out = append(out, ch)

	// Pastry/Tapestry-style prefix routing with base-16 digits.
	mesh := pastry.New(m, 4, live)
	rng = xrand.New(seed)
	pa := HopStats{Scheme: "pastry-b4"}
	for i := 0; i < lookups; i++ {
		key := bitops.PID(rng.Intn(n))
		origin := bitops.PID(rng.Intn(n))
		_, hops := mesh.Lookup(origin, key)
		pa.observe(hops)
	}
	out = append(out, pa)

	// CAN greedy routing in two dimensions.
	nw := can.New(2, n, seed)
	rng = xrand.New(seed)
	cn := HopStats{Scheme: "can-d2"}
	for i := 0; i < lookups; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		_, hops := nw.Lookup(rng.Intn(n), p)
		cn.observe(hops)
	}
	out = append(out, cn)
	return out
}

func (h *HopStats) observe(hops int) {
	h.Lookups++
	h.Mean += (float64(hops) - h.Mean) / float64(h.Lookups)
	if hops > h.Max {
		h.Max = hops
	}
	for len(h.Hist) <= hops {
		h.Hist = append(h.Hist, 0)
	}
	h.Hist[hops]++
}

// HopTable renders a hop comparison.
func HopTable(stats []HopStats, m int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lookup hops, N = %d nodes (m = %d)\n", bitops.Slots(m), m)
	fmt.Fprintf(&b, "%-10s%10s%8s\n", "scheme", "mean", "max")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-10s%10.2f%8d\n", s.Scheme, s.Mean, s.Max)
	}
	return b.String()
}

// ChurnRow is one availability measurement.
type ChurnRow struct {
	B            int
	ChurnRate    float64
	Availability float64
	MeanHops     float64
	Fails        int
}

// ChurnTable measures availability under failure-heavy churn for each
// fault-tolerance degree and churn rate — the §8 "real-world scenario".
func ChurnTable(bs []int, churnRates []float64, seed uint64) ([]ChurnRow, error) {
	var rows []ChurnRow
	for _, b := range bs {
		for _, cr := range churnRates {
			sc := dynsim.DefaultScenario()
			sc.B = b
			sc.ChurnRate = cr
			sc.JoinFrac, sc.LeaveFrac, sc.FailFrac = 1, 0, 2
			sc.Duration = 60
			sc.Seed = seed
			res, err := dynsim.Run(sc)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ChurnRow{
				B: b, ChurnRate: cr,
				Availability: res.Availability,
				MeanHops:     res.MeanHops,
				Fails:        res.Fails,
			})
		}
	}
	return rows, nil
}

// ChurnTableString renders the churn table.
func ChurnTableString(rows []ChurnRow) string {
	var b strings.Builder
	b.WriteString("availability under failure-heavy churn (join:fail = 1:2, 60 virtual seconds)\n")
	fmt.Fprintf(&b, "%-4s%-12s%-14s%-12s%-8s\n", "b", "churn/s", "availability", "mean hops", "fails")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d%-12.1f%-14.4f%-12.2f%-8d\n",
			r.B, r.ChurnRate, r.Availability, r.MeanHops, r.Fails)
	}
	return b.String()
}

// HopsPoint is one sample of the path-length side effect of replication.
type HopsPoint struct {
	Replicas int
	MeanHops float64
	MaxLoad  float64
}

// HopsVsReplicas balances an even workload with LessLog, sampling the
// rate-weighted mean lookup path length as copies spread — replication
// halves load *and* shortens paths, a side effect the paper does not plot.
// It runs Balance with a budget of `every` placements at a time, sampling
// the initial state, after each budget, and the balanced end state.
func HopsVsReplicas(p Params, rate float64, every int) ([]HopsPoint, error) {
	sim, _ := evenSim(p, 0, rate)
	out := []HopsPoint{{Replicas: 0, MeanHops: sim.MeanHops(), MaxLoad: sim.Summary().MaxLoad}}
	for replicas := 0; ; {
		res, err := loadsim.Balance(replication.LessLog{}, max(every, 1), sim)
		replicas += res.ReplicasCreated
		out = append(out, HopsPoint{Replicas: replicas, MeanHops: sim.MeanHops(), MaxLoad: res.Summary.MaxLoad})
		if !errors.Is(err, loadsim.ErrBudget) {
			return out, err
		}
	}
}

// HopsVsReplicasTable renders the path-length samples.
func HopsVsReplicasTable(pts []HopsPoint) string {
	var b strings.Builder
	b.WriteString("lookup path length vs replicas (even workload, LessLog placement)\n")
	fmt.Fprintf(&b, "%-10s%-12s%-10s\n", "replicas", "mean hops", "max load")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%-10d%-12.3f%-10.1f\n", pt.Replicas, pt.MeanHops, pt.MaxLoad)
	}
	return b.String()
}

// LatencyRow compares response times before and after balancing at one
// arrival rate.
type LatencyRow struct {
	Rate                     float64
	Holders                  int
	SingleP50, SingleP99     float64
	BalancedP50, BalancedP99 float64
}

// Latency runs the queueing model (loadsim.Queue) at each total arrival
// rate: once with only the primary copy and once with the LessLog-balanced
// placement, translating the paper's replica counts into the response
// times they buy. Service time is 1/cap seconds (so "100 requests per
// second" is literally the node's service capacity) and each forwarding
// hop costs hopLatency seconds one way.
func Latency(p Params, rates []float64, hopLatency float64) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, rate := range rates {
		sim, _ := evenSim(p, 0, rate)
		q := loadsim.QueueConfig{
			HopLatency: hopLatency, ServiceTime: 1 / p.Cap,
			Duration: 30, WarmUp: 5, Seed: p.Seed,
		}
		single, err := sim.Queue(q)
		if err != nil {
			return nil, fmt.Errorf("rate=%v single: %w", rate, err)
		}
		if _, err := loadsim.Balance(replication.LessLog{}, 0, sim); err != nil {
			return nil, fmt.Errorf("rate=%v balance: %w", rate, err)
		}
		balanced, err := sim.Queue(q)
		if err != nil {
			return nil, fmt.Errorf("rate=%v balanced: %w", rate, err)
		}
		rows = append(rows, LatencyRow{
			Rate: rate, Holders: len(sim.Holders()),
			SingleP50: single.P50, SingleP99: single.P99,
			BalancedP50: balanced.P50, BalancedP99: balanced.P99,
		})
	}
	return rows, nil
}

// LatencyTable renders the latency comparison in milliseconds.
func LatencyTable(rows []LatencyRow) string {
	var b strings.Builder
	b.WriteString("response times: single copy vs LessLog-balanced placement (ms)\n")
	fmt.Fprintf(&b, "%-10s%-10s%-14s%-14s%-14s%-14s\n",
		"req/s", "holders", "single p50", "single p99", "balanced p50", "balanced p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10.0f%-10d%-14.1f%-14.1f%-14.1f%-14.1f\n",
			r.Rate, r.Holders, r.SingleP50*1e3, r.SingleP99*1e3, r.BalancedP50*1e3, r.BalancedP99*1e3)
	}
	return b.String()
}

// FTCostRow reports the load-balancing cost of one fault-tolerance
// degree.
type FTCostRow struct {
	B        int
	Copies   int // initial authoritative copies, 2^b
	Replicas int // additional replicas to balance
	MeanHops float64
}

// FTCost measures what the §4 fault-tolerant model costs and buys at the
// load level: with b bits reserved, a file starts with 2^b copies in 2^b
// independent subtrees, so the same total request rate starts spread
// b-ways and needs fewer load replicas, served over shorter subtree
// paths.
func FTCost(p Params, rate float64, bs []int) ([]FTCostRow, error) {
	var rows []FTCostRow
	for _, b := range bs {
		sim, _ := evenSim(p, b, rate)
		res, err := loadsim.Balance(replication.LessLog{}, 0, sim)
		if err != nil {
			return nil, fmt.Errorf("b=%d: %w", b, err)
		}
		rows = append(rows, FTCostRow{
			B: b, Copies: len(sim.Primaries()),
			Replicas: res.ReplicasCreated,
			MeanHops: sim.MeanHops(),
		})
	}
	return rows, nil
}

// FTCostTable renders the fault-tolerance cost sweep.
func FTCostTable(rows []FTCostRow, rate float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault-tolerance degree vs balancing cost (%d req/s, LessLog)\n", int(rate))
	fmt.Fprintf(&b, "%-4s%-10s%-10s%-12s\n", "b", "copies", "replicas", "mean hops")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d%-10d%-10d%-12.2f\n", r.B, r.Copies, r.Replicas, r.MeanHops)
	}
	return b.String()
}

// FlashRow is one observation window of the flash-crowd experiment.
type FlashRow struct {
	Window   int
	Holders  int
	MaxServe uint64 // hottest holder's serve count in the window
	Evicted  int
}

// FlashCrowd measures how quickly the logless mechanism reacts: a file
// is served quietly, then a flash crowd raises demand to one get per node
// per window; each window every overloaded holder replicates once. After
// crowdWindows the crowd leaves (demand drops to one get per 16 nodes)
// and the counter-based eviction reclaims replicas. The returned rows are
// the per-window hottest-holder serve counts — the engine-level dynamics
// of Figure 5's end state.
func FlashCrowd(p Params, crowdWindows, quietWindows int, threshold uint64) ([]FlashRow, error) {
	c, err := core.New(core.Config{M: p.M, InitialNodes: bitops.Slots(p.M),
		Hasher: hashring.Fixed(p.Target), Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	if _, err := c.Insert(0, "flash", []byte("x")); err != nil {
		return nil, err
	}
	n := bitops.Slots(p.M)
	var rows []FlashRow
	window := func(w int, stride int, evictBelow uint64) error {
		for q := 0; q < n; q += stride {
			if _, err := c.Get(bitops.PID(q), "flash"); err != nil {
				return err
			}
		}
		var maxServe uint64
		holders := c.HoldersOf("flash")
		for _, h := range holders {
			nd, _ := c.Node(h)
			if hits := nd.Store().Hits("flash"); hits > maxServe {
				maxServe = hits
			}
		}
		_, evicted := c.Maintain(threshold, evictBelow)
		rows = append(rows, FlashRow{
			Window: w, Holders: len(holders), MaxServe: maxServe, Evicted: evicted,
		})
		return nil
	}
	w := 0
	for i := 0; i < crowdWindows; i++ {
		if err := window(w, 1, 0); err != nil {
			return nil, err
		}
		w++
	}
	for i := 0; i < quietWindows; i++ {
		if err := window(w, 16, 2); err != nil {
			return nil, err
		}
		w++
	}
	return rows, nil
}

// FlashCrowdTable renders the flash-crowd dynamics.
func FlashCrowdTable(rows []FlashRow, threshold uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flash-crowd dynamics (one get/node/window during the crowd, threshold %d)\n", threshold)
	fmt.Fprintf(&b, "%-8s%-10s%-12s%-10s\n", "window", "holders", "max serve", "evicted")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d%-10d%-12d%-10d\n", r.Window, r.Holders, r.MaxServe, r.Evicted)
	}
	return b.String()
}

// UpdateCostRow reports the §2.2 top-down update broadcast's cost at one
// replica population.
type UpdateCostRow struct {
	Holders  int // copies in the system when the update ran
	Updated  int // copies rewritten (must equal Holders)
	Messages int // broadcast messages delivered
}

// UpdateCost grows a hot file's replica set through engine-level overload
// windows (one get per node, replicate over threshold) and measures the
// messages each top-down update broadcast costs. The §2.2 design keeps
// the broadcast proportional to the number of *holders plus their direct
// children*, not the system size; this experiment puts numbers on that.
func UpdateCost(p Params, rounds int) ([]UpdateCostRow, error) {
	c, err := core.New(core.Config{M: p.M, InitialNodes: bitops.Slots(p.M),
		Hasher: hashring.Fixed(p.Target), Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	if _, err := c.Insert(0, "hot", []byte("v0")); err != nil {
		return nil, err
	}
	n := bitops.Slots(p.M)
	var rows []UpdateCostRow
	for round := 0; round <= rounds; round++ {
		res, err := c.Update(bitops.PID(round%n), "hot", []byte(fmt.Sprintf("v%d", round+1)))
		if err != nil {
			return nil, err
		}
		holders := len(c.HoldersOf("hot"))
		if res.CopiesUpdated != holders {
			return nil, fmt.Errorf("update reached %d of %d copies", res.CopiesUpdated, holders)
		}
		rows = append(rows, UpdateCostRow{
			Holders: holders, Updated: res.CopiesUpdated, Messages: res.Messages,
		})
		// Grow the replica population: one observation window, closed at a
		// threshold that halves each round.
		for q := 0; q < n; q++ {
			if _, err := c.Get(bitops.PID(q), "hot"); err != nil {
				return nil, err
			}
		}
		c.Maintain(uint64(n)>>uint(round+1), 0)
	}
	return rows, nil
}

// UpdateCostTable renders the update-broadcast cost sweep.
func UpdateCostTable(rows []UpdateCostRow) string {
	var b strings.Builder
	b.WriteString("top-down update broadcast cost as replicas spread (§2.2)\n")
	fmt.Fprintf(&b, "%-10s%-10s%-12s\n", "holders", "updated", "messages")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d%-10d%-12d\n", r.Holders, r.Updated, r.Messages)
	}
	return b.String()
}

// rootWalk loops ptree.View.Next from origin until it stops, in a tree
// with B = 0 where no node but the root holds a copy: the get walk to the
// target. It returns the last stop, the stop before it (origin when the
// origin is the last stop) and the hops taken.
func rootWalk(v ptree.View, origin bitops.PID) (server, forwarder bitops.PID, hops int) {
	server, forwarder = origin, origin
	for st := (ptree.Route{Origin: origin}); ; hops++ {
		next, nst, _, ok := v.Next(server, st)
		if !ok {
			return server, forwarder, hops
		}
		forwarder, server, st = server, next, nst
	}
}

// LogOverheadRow reports the bookkeeping a log-based replication method
// carries to make one placement decision, against LessLog's zero.
type LogOverheadRow struct {
	Requests     int
	Entries      int // retained log entries across the system
	Bytes        int // memory footprint of those logs
	LessLogBytes int // always 0: the point of the paper
}

// LogOverhead quantifies the §1 motivation: it replays request batches of
// growing size through the lookup tree, recording at the serving node the
// (origin, forwarder) entries a log-based system must retain to make its
// placement decision, and reports the footprint. logCap bounds each
// per-file ring as a real deployment would; pass a cap at least as large
// as the biggest batch to model unbounded logs.
func LogOverhead(p Params, requestCounts []int, logCap int) ([]LogOverheadRow, error) {
	live := liveness.NewAllLive(p.M, bitops.Slots(p.M))
	v := ptree.NewView(p.Target, live, 0)
	n := bitops.Slots(p.M)
	var rows []LogOverheadRow
	for _, reqs := range requestCounts {
		rec := accesslog.NewRecorder(logCap)
		for i := 0; i < reqs; i++ {
			origin := bitops.PID(i % n)
			server, forwarder, _ := rootWalk(v, origin)
			rec.Record(server, "hot", accesslog.Entry{Origin: origin, Forwarder: forwarder})
		}
		entries, bytes := rec.Footprint()
		rows = append(rows, LogOverheadRow{
			Requests: reqs, Entries: entries, Bytes: bytes,
		})
	}
	return rows, nil
}

// LogOverheadTable renders the log-footprint comparison.
func LogOverheadTable(rows []LogOverheadRow) string {
	var b strings.Builder
	b.WriteString("client-access-log footprint for one placement decision (log-based vs LessLog)\n")
	fmt.Fprintf(&b, "%-12s%-18s%-16s%-14s\n", "requests", "log entries kept", "log bytes", "lesslog bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d%-18d%-16d%-14d\n", r.Requests, r.Entries, r.Bytes, r.LessLogBytes)
	}
	return b.String()
}

// MultiFileRow reports one multi-file balance configuration.
type MultiFileRow struct {
	Files    int
	Replicas int
	Holders  int
}

// MultiFile generalizes Figure 5 to several concurrently hot files
// sharing a fixed total rate, balanced under the aggregate per-node cap
// (loadsim.EvenSplit and loadsim.Balance over k files). The paper
// evaluates a single file; this extension shows the logless placement
// composes across files.
func MultiFile(p Params, total float64, ks []int) ([]MultiFileRow, error) {
	var rows []MultiFileRow
	for _, k := range ks {
		live := liveness.NewAllLive(p.M, bitops.Slots(p.M))
		files := loadsim.EvenSplit(loadsim.Config{M: p.M, Cap: p.Cap, Live: live, Seed: p.Seed}, k, total)
		res, err := loadsim.Balance(replication.LessLog{}, 0, files...)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		rows = append(rows, MultiFileRow{
			Files:    k,
			Replicas: res.ReplicasCreated,
			Holders:  res.Summary.Holders,
		})
	}
	return rows, nil
}

// MultiFileTable renders the multi-file sweep.
func MultiFileTable(rows []MultiFileRow, total float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "replicas to balance %d req/s split across K hot files (LessLog)\n", int(total))
	fmt.Fprintf(&b, "%-8s%-10s%-10s\n", "files", "replicas", "holders")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d%-10d%-10d\n", r.Files, r.Replicas, r.Holders)
	}
	return b.String()
}

// SensitivityRow reports replicas-to-balance at one identifier width.
type SensitivityRow struct {
	M        int
	Nodes    int
	Replicas int
}

// SensitivityM sweeps the identifier width at a fixed total request rate
// and per-node cap, with the rate scaled so the per-node origination is
// constant across widths.
func SensitivityM(ms []int, perNodeRate, cap float64, seed uint64) ([]SensitivityRow, error) {
	var rows []SensitivityRow
	for _, m := range ms {
		n := bitops.Slots(m)
		live := liveness.NewAllLive(m, n)
		sim := loadsim.New(loadsim.Config{
			M: m, Target: bitops.PID(4 % n), Cap: cap,
			Live:  live,
			Rates: workload.Even(perNodeRate*float64(n), live),
			Seed:  seed,
		})
		res, err := loadsim.Balance(replication.LessLog{}, 0, sim)
		if err != nil {
			return nil, fmt.Errorf("m=%d: %w", m, err)
		}
		rows = append(rows, SensitivityRow{M: m, Nodes: n, Replicas: res.ReplicasCreated})
	}
	return rows, nil
}

// SensitivityTable renders the width sweep.
func SensitivityTable(rows []SensitivityRow, perNodeRate, cap float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "replicas to balance vs system size (%.1f req/s per node, cap %.0f)\n", perNodeRate, cap)
	fmt.Fprintf(&b, "%-4s%-8s%-10s\n", "m", "nodes", "replicas")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d%-8d%-10d\n", r.M, r.Nodes, r.Replicas)
	}
	return b.String()
}
