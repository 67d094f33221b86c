package lesslog

// Benchmark harness for the paper's evaluation (§6): one benchmark per
// figure regenerates the full sweep and reports the headline numbers as
// benchmark metrics (replicas at the 20,000 req/s point per method), plus
// the lookup-cost comparison against Chord, the §2.2 halving guarantee,
// the counter-based eviction mechanism, and the ablations listed in
// DESIGN.md. Absolute wall-clock is incidental; the reported metrics are
// the reproduction targets recorded in EXPERIMENTS.md.
//
// Run: go test -bench=. -benchmem .

import (
	"fmt"
	"strings"
	"testing"

	"lesslog/internal/bitops"
	"lesslog/internal/can"
	"lesslog/internal/chord"
	"lesslog/internal/experiments"
	"lesslog/internal/liveness"
	"lesslog/internal/loadsim"
	"lesslog/internal/pastry"
	"lesslog/internal/ptree"
	"lesslog/internal/replication"
	"lesslog/internal/workload"
	"lesslog/internal/xrand"
)

// benchParams is the paper configuration with a single trial per point,
// keeping one full figure regeneration inside a benchmark iteration.
func benchParams() experiments.Params {
	p := experiments.PaperParams()
	p.Trials = 1
	return p
}

// reportFigure exposes each series' replica count at the top rate as a
// benchmark metric (e.g. "lesslog-replicas@20k").
func reportFigure(b *testing.B, fig experiments.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		// Benchmark metric units must be whitespace-free: "10% dead"
		// becomes "10%dead".
		label := strings.ReplaceAll(s.Label, " ", "")
		b.ReportMetric(s.Replicas[len(s.Replicas)-1], label+"-replicas@20k")
	}
}

func benchFigure(b *testing.B, run func(experiments.Params) (experiments.Figure, error)) {
	b.Helper()
	var fig experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

// BenchmarkFigure5 regenerates "An evenly-distributed load": log-based vs
// LessLog vs random, 1,000–20,000 req/s, m=10, cap 100 req/s.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates "An evenly-distributed load on LessLog"
// with 10%, 20% and 30% dead nodes.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Figure6) }

// BenchmarkFigure7 regenerates "A locality model" (80% of requests on 20%
// of the nodes).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates "A locality model on LessLog" with dead
// nodes.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkLookupHopsLessLog measures the paper's O(log N) lookup bound:
// average live-ancestor hops to the target over every origin in the
// m=10 system, reported as "avg-hops".
func BenchmarkLookupHopsLessLog(b *testing.B) {
	live := liveness.NewAllLive(10, 1024)
	v := ptree.NewView(4, live, 0)
	totalHops, lookups := 0, 0
	for i := 0; i < b.N; i++ {
		for origin := bitops.PID(0); origin < 1024; origin++ {
			// The walk ends at the root, where Next has no step left.
			for cur, st := origin, (ptree.Route{Origin: origin}); ; totalHops++ {
				next, nst, _, ok := v.Next(cur, st)
				if !ok {
					break
				}
				cur, st = next, nst
			}
			lookups++
		}
	}
	b.ReportMetric(float64(totalHops)/float64(lookups), "avg-hops")
}

// BenchmarkLookupHopsChord is the related-work comparison (§7): Chord
// finger-table routing over the same 1024-node population.
func BenchmarkLookupHopsChord(b *testing.B) {
	live := liveness.NewAllLive(10, 1024)
	ring := chord.New(10, live)
	rng := xrand.New(1)
	totalHops, lookups := 0, 0
	for i := 0; i < b.N; i++ {
		for t := 0; t < 1024; t++ {
			_, hops := ring.Lookup(bitops.PID(rng.Intn(1024)), uint32(rng.Intn(1024)))
			totalHops += hops
			lookups++
		}
	}
	b.ReportMetric(float64(totalHops)/float64(lookups), "avg-hops")
}

// BenchmarkHalving measures the §2.2 guarantee: the root's load fraction
// remaining after one LessLog replication under an even workload
// (reported as "load-fraction"; the paper proves 0.5).
func BenchmarkHalving(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		live := liveness.NewAllLive(10, 1024)
		sim := loadsim.New(loadsim.Config{
			M: 10, Target: 4, Cap: 100, Live: live,
			Rates: workload.Even(20000, live), Seed: 1,
		})
		before := sim.LoadOf(4)
		p, _ := (replication.LessLog{}).Place(sim, 4)
		sim.AddReplica(p)
		frac = sim.LoadOf(4) / before
	}
	b.ReportMetric(frac, "load-fraction")
}

// BenchmarkEviction measures the §6 counter-based removal mechanism:
// replicas dropped after a 10x rate collapse from the balanced 20,000
// req/s state ("evicted" and "holders-left").
func BenchmarkEviction(b *testing.B) {
	var evicted, left int
	for i := 0; i < b.N; i++ {
		live := liveness.NewAllLive(10, 1024)
		sim := loadsim.New(loadsim.Config{
			M: 10, Target: 4, Cap: 100, Live: live,
			Rates: workload.Even(20000, live), Seed: 1,
		})
		if _, err := loadsim.Balance(replication.LessLog{}, 0, sim); err != nil {
			b.Fatal(err)
		}
		sim.SetRates(workload.Even(2000, live))
		evicted = sim.EvictCold(20)
		left = len(sim.Holders())
	}
	b.ReportMetric(float64(evicted), "evicted")
	b.ReportMetric(float64(left), "holders-left")
}

// reversedLessLog is the DESIGN.md child-order ablation: REPLICATEFILE
// walking the children list from the *fewest*-offspring end.
type reversedLessLog struct{}

func (reversedLessLog) Name() string { return "lesslog-reversed" }

func (reversedLessLog) Place(ctx replication.Context, k bitops.PID) (bitops.PID, bool) {
	v := ctx.View()
	list := v.ExpandedChildrenList(k)
	for i := len(list) - 1; i >= 0; i-- {
		if !ctx.HasCopy(list[i]) {
			return list[i], true
		}
	}
	return 0, false
}

// BenchmarkAblationChildOrder compares replicas-to-balance for the paper's
// most-offspring-first children list against the reversed order, showing
// why Property 3 ordering matters ("paper-order" vs "reversed-order").
func BenchmarkAblationChildOrder(b *testing.B) {
	run := func(s replication.Strategy) float64 {
		live := liveness.NewAllLive(10, 1024)
		sim := loadsim.New(loadsim.Config{
			M: 10, Target: 4, Cap: 100, Live: live,
			Rates: workload.Even(10000, live), Seed: 1,
		})
		res, err := loadsim.Balance(s, 0, sim)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.ReplicasCreated)
	}
	var paper, reversed float64
	for i := 0; i < b.N; i++ {
		paper = run(replication.LessLog{})
		reversed = run(reversedLessLog{})
	}
	b.ReportMetric(paper, "paper-order")
	b.ReportMetric(reversed, "reversed-order")
}

// ownOnlyLessLog is the DESIGN.md proportional-choice ablation: the
// overloaded subtree maximum always sheds to its own children list,
// never to the root's.
type ownOnlyLessLog struct{}

func (ownOnlyLessLog) Name() string { return "lesslog-own-only" }

func (ownOnlyLessLog) Place(ctx replication.Context, k bitops.PID) (bitops.PID, bool) {
	v := ctx.View()
	for _, p := range v.ExpandedChildrenList(k) {
		if !ctx.HasCopy(p) {
			return p, true
		}
	}
	// Fall back to the root list only when the own list is exhausted, so
	// the ablation still terminates.
	for _, p := range v.ExpandedChildrenList(v.SubtreeRoot(v.SubtreeID(k))) {
		if !ctx.HasCopy(p) {
			return p, true
		}
	}
	return 0, false
}

// BenchmarkAblationProportional compares the §3 proportional children-list
// choice against always-own-list in a configuration where the target and
// its best children are dead, so the whole system funnels into the
// subtree maximum ("proportional" vs "own-only" replica counts).
func BenchmarkAblationProportional(b *testing.B) {
	run := func(s replication.Strategy) float64 {
		live := liveness.NewAllLive(10, 1024)
		// Kill the target and the top of its tree so the live maximum
		// holds the primary and takes the proportional branch.
		v := ptree.NewView(4, live, 0)
		killed := 0
		for vid := bitops.RootVID(10); killed < 40; vid-- {
			p := v.PID(vid)
			if live.IsLive(p) {
				live.SetDead(p)
				killed++
			}
		}
		sim := loadsim.New(loadsim.Config{
			M: 10, Target: 4, Cap: 100, Live: live,
			Rates: workload.Even(10000, live), Seed: 2,
		})
		res, err := loadsim.Balance(s, 0, sim)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.ReplicasCreated)
	}
	var prop, own float64
	for i := 0; i < b.N; i++ {
		prop = run(replication.LessLog{})
		own = run(ownOnlyLessLog{})
	}
	b.ReportMetric(prop, "proportional")
	b.ReportMetric(own, "own-only")
}

// BenchmarkLookupHopsCAN completes the §7 baseline trio: CAN (d=2) greedy
// routing over the same 1024-node population, whose O(N^(1/d)) paths
// contrast with the logarithmic LessLog and Chord.
func BenchmarkLookupHopsCAN(b *testing.B) {
	nw := can.New(2, 1024, 9)
	rng := xrand.New(1)
	totalHops, lookups := 0, 0
	for i := 0; i < b.N; i++ {
		for t := 0; t < 1024; t++ {
			_, hops := nw.Lookup(rng.Intn(1024), []float64{rng.Float64(), rng.Float64()})
			totalHops += hops
			lookups++
		}
	}
	b.ReportMetric(float64(totalHops)/float64(lookups), "avg-hops")
}

// BenchmarkLookupHopsPastry adds the Plaxton/Pastry/Tapestry prefix
// routing the paper cites ([6], [8], [11]) to the §7 comparison: base-16
// digits over the same population.
func BenchmarkLookupHopsPastry(b *testing.B) {
	live := liveness.NewAllLive(10, 1024)
	mesh := pastry.New(10, 4, live)
	rng := xrand.New(1)
	totalHops, lookups := 0, 0
	for i := 0; i < b.N; i++ {
		for t := 0; t < 1024; t++ {
			_, hops := mesh.Lookup(bitops.PID(rng.Intn(1024)), bitops.PID(rng.Intn(1024)))
			totalHops += hops
			lookups++
		}
	}
	b.ReportMetric(float64(totalHops)/float64(lookups), "avg-hops")
}

// BenchmarkMultiFile measures the multi-hot-file extension: replicas to
// balance 20,000 req/s split across 8 files under the aggregate cap.
func BenchmarkMultiFile(b *testing.B) {
	var replicas float64
	for i := 0; i < b.N; i++ {
		live := liveness.NewAllLive(10, 1024)
		files := loadsim.EvenSplit(loadsim.Config{M: 10, Cap: 100, Live: live, Seed: 1}, 8, 20000)
		res, err := loadsim.Balance(replication.LessLog{}, 0, files...)
		if err != nil {
			b.Fatal(err)
		}
		replicas = float64(res.ReplicasCreated)
	}
	b.ReportMetric(replicas, "replicas")
}

// BenchmarkUpdateCost measures the §2.2 top-down update broadcast at 256
// holders in the 1024-node system.
func BenchmarkUpdateCost(b *testing.B) {
	var msgs float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.UpdateCost(benchParams(), 8)
		if err != nil {
			b.Fatal(err)
		}
		msgs = float64(rows[len(rows)-1].Messages)
	}
	b.ReportMetric(msgs, "messages@256holders")
}

// BenchmarkChurnAvailability runs the §8 dynamic scenario (extension):
// availability at churn rate 2/s for B=0 and B=1, reported as metrics.
func BenchmarkChurnAvailability(b *testing.B) {
	var a0, a1 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ChurnTable([]int{0, 1}, []float64{2}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.B == 0 {
				a0 = r.Availability
			} else {
				a1 = r.Availability
			}
		}
	}
	b.ReportMetric(a0, "availability-b0")
	b.ReportMetric(a1, "availability-b1")
}

// BenchmarkEngineGet measures the operational engine's end-to-end get
// path (route + serve) on the paper-scale system.
func BenchmarkEngineGet(b *testing.B) {
	s, err := New(Options{M: 10, InitialNodes: 1024, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Insert(0, "bench-object", []byte("payload")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(PID(i&1023), "bench-object"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineInsert measures insert placement (including the
// FINDLIVENODE search) with 25% dead slots.
func BenchmarkEngineInsert(b *testing.B) {
	s, err := New(Options{M: 10, InitialNodes: 1024, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(3)
	for killed := 0; killed < 256; {
		p := PID(rng.Intn(1024))
		if s.Live().IsLive(p) {
			if err := s.Fail(p); err != nil {
				b.Fatal(err)
			}
			killed++
		}
	}
	live := s.Live()
	safe := live.LivePIDs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin := PID(i & 1023)
		if !live.IsLive(origin) {
			origin = safe
		}
		if _, err := s.Insert(origin, fmt.Sprintf("obj-%d", i), []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
}
