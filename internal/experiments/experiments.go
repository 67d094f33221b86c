// Package experiments reproduces the paper's evaluation (§6): the number
// of replicas each replication method creates to reach a load-balanced
// state, swept over the total incoming request rate, for the four figures:
//
//	Figure 5 — evenly distributed requests; log-based vs LessLog vs random
//	Figure 6 — evenly distributed requests; LessLog with 10/20/30% dead
//	Figure 7 — 80/20 locality; log-based vs LessLog vs random
//	Figure 8 — 80/20 locality; LessLog with 10/20/30% dead
//
// Paper parameters: m = 10 (1024 identifier slots), b = 0, per-node load
// cap 100 req/s, one popular file, rates 1,000–20,000 req/s in 1,000
// steps. Randomized inputs (dead sets, hot sets, the random baseline) are
// averaged over Trials seeds.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/loadsim"
	"lesslog/internal/replication"
	"lesslog/internal/workload"
	"lesslog/internal/xrand"
)

// Params configures a sweep. The zero value is unusable; start from
// PaperParams.
type Params struct {
	M        int        // identifier width
	Target   bitops.PID // ψ(f) of the popular file
	Cap      float64    // overload threshold, req/s
	RateMin  float64    // sweep start (inclusive)
	RateMax  float64    // sweep end (inclusive)
	RateStep float64    // sweep step
	HotShare float64    // locality: share of requests on the hot region
	HotFrac  float64    // locality: fraction of nodes in the hot region
	Trials   int        // seeds averaged per point
	Seed     uint64     // base seed
	// Parallelism bounds the number of sweep points simulated
	// concurrently; 0 means GOMAXPROCS. Every point is seeded
	// independently, so results are identical at any parallelism.
	Parallelism int
}

// PaperParams returns the §6 configuration.
func PaperParams() Params {
	return Params{
		M:        10,
		Target:   4,
		Cap:      100,
		RateMin:  1000,
		RateMax:  20000,
		RateStep: 1000,
		HotShare: 0.8,
		HotFrac:  0.2,
		Trials:   3,
		Seed:     1,
	}
}

// Rates returns the swept x-axis values.
func (p Params) Rates() []float64 {
	var out []float64
	for r := p.RateMin; r <= p.RateMax+1e-9; r += p.RateStep {
		out = append(out, r)
	}
	return out
}

// Series is one curve of a figure.
type Series struct {
	Label    string
	Replicas []float64 // mean replicas created, aligned with Figure.Rates
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Rates  []float64
	Series []Series
}

// RunPoint simulates one (strategy, rate, deadFrac, locality) point with
// one seed and returns the replicas created. An error means the system
// could not be balanced, which does not occur in the paper's ranges.
func RunPoint(p Params, strat replication.Strategy, rate, deadFrac float64, locality bool, seed uint64) (int, error) {
	rng := xrand.New(seed)
	live := liveness.NewAllLive(p.M, bitops.Slots(p.M))
	if deadFrac > 0 {
		workload.KillRandom(live, deadFrac, bitops.PID(^uint32(0)), rng.Fork())
	}
	var rates workload.Rates
	if locality {
		rates = workload.Locality(rate, p.HotShare, p.HotFrac, live, rng.Fork())
	} else {
		rates = workload.Even(rate, live)
	}
	sim := loadsim.New(loadsim.Config{
		M: p.M, B: 0, Target: p.Target, Cap: p.Cap,
		Live: live, Rates: rates, Seed: rng.Uint64(),
	})
	res, err := loadsim.Balance(strat, 0, sim)
	if errors.Is(err, loadsim.ErrStuck) {
		// At extreme dead-fraction/locality combinations a hot node's own
		// request origination exceeds the cap, so no replica placement can
		// relieve it; the methods replicate until nothing more helps and
		// the replica count — the figures' metric — is still well defined.
		return res.ReplicasCreated, nil
	}
	if err != nil {
		return res.ReplicasCreated, fmt.Errorf("rate=%v dead=%v locality=%v: %w",
			rate, deadFrac, locality, err)
	}
	return res.ReplicasCreated, nil
}

// meanPoint averages RunPoint over p.Trials seeds.
func meanPoint(p Params, strat replication.Strategy, rate, deadFrac float64, locality bool) (float64, error) {
	trials := p.Trials
	if trials < 1 {
		trials = 1
	}
	sum := 0.0
	for t := 0; t < trials; t++ {
		n, err := RunPoint(p, strat, rate, deadFrac, locality, p.Seed+uint64(t)*7919)
		if err != nil {
			return 0, err
		}
		sum += float64(n)
	}
	return sum / float64(trials), nil
}

// sweep builds one Series, simulating the sweep points concurrently on a
// bounded worker pool. Points are independent seeded simulations, so the
// series is identical at any parallelism.
func sweep(p Params, label string, strat replication.Strategy, deadFrac float64, locality bool) (Series, error) {
	rates := p.Rates()
	s := Series{Label: label, Replicas: make([]float64, len(rates))}
	workers := p.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rates) {
		workers = len(rates)
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		firstErr error
		errOnce  sync.Once
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rates) {
					return
				}
				v, err := meanPoint(p, strat, rates[i], deadFrac, locality)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				s.Replicas[i] = v
			}
		}()
	}
	wg.Wait()
	return s, firstErr
}

// methodSeries builds the three-strategy comparison of Figures 5 and 7.
func methodSeries(p Params, locality bool) ([]Series, error) {
	specs := []struct {
		label string
		strat replication.Strategy
	}{
		{"log-based", replication.LogBased{}},
		{"lesslog", replication.LessLog{}},
		{"random", replication.Random{}},
	}
	var out []Series
	for _, sp := range specs {
		s, err := sweep(p, sp.label, sp.strat, 0, locality)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// deadSeries builds the dead-fraction comparison of Figures 6 and 8.
func deadSeries(p Params, locality bool) ([]Series, error) {
	var out []Series
	for _, frac := range []float64{0.1, 0.2, 0.3} {
		s, err := sweep(p, fmt.Sprintf("%d%% dead", int(frac*100)), replication.LessLog{}, frac, locality)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure5 reproduces "An evenly-distributed load".
func Figure5(p Params) (Figure, error) {
	series, err := methodSeries(p, false)
	return Figure{
		ID:     "figure5",
		Title:  "Replicas to balance an evenly-distributed load",
		XLabel: "incoming requests/s",
		Rates:  p.Rates(),
		Series: series,
	}, err
}

// Figure6 reproduces "An evenly-distributed load on LessLog" (dead nodes).
func Figure6(p Params) (Figure, error) {
	series, err := deadSeries(p, false)
	return Figure{
		ID:     "figure6",
		Title:  "LessLog under an evenly-distributed load with dead nodes",
		XLabel: "incoming requests/s",
		Rates:  p.Rates(),
		Series: series,
	}, err
}

// Figure7 reproduces "A locality model".
func Figure7(p Params) (Figure, error) {
	series, err := methodSeries(p, true)
	return Figure{
		ID:     "figure7",
		Title:  "Replicas to balance an 80/20 locality load",
		XLabel: "incoming requests/s",
		Rates:  p.Rates(),
		Series: series,
	}, err
}

// Figure8 reproduces "A locality model on LessLog" (dead nodes).
func Figure8(p Params) (Figure, error) {
	series, err := deadSeries(p, true)
	return Figure{
		ID:     "figure8",
		Title:  "LessLog under an 80/20 locality load with dead nodes",
		XLabel: "incoming requests/s",
		Rates:  p.Rates(),
		Series: series,
	}, err
}

// ByID dispatches on "figure5".."figure8" or "5".."8".
func ByID(id string, p Params) (Figure, error) {
	switch strings.TrimPrefix(id, "figure") {
	case "5":
		return Figure5(p)
	case "6":
		return Figure6(p)
	case "7":
		return Figure7(p)
	case "8":
		return Figure8(p)
	}
	return Figure{}, fmt.Errorf("experiments: unknown figure %q", id)
}

// Table renders the figure as an aligned text table, one row per rate.
func Table(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%14s", s.Label)
	}
	b.WriteByte('\n')
	for i, r := range f.Rates {
		fmt.Fprintf(&b, "%-12.0f", r)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%14.1f", s.Replicas[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as a comma-separated table with a header row.
func CSV(f Figure) string {
	var b strings.Builder
	b.WriteString("rate")
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(s.Label)
	}
	b.WriteByte('\n')
	for i, r := range f.Rates {
		fmt.Fprintf(&b, "%.0f", r)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%.2f", s.Replicas[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the figure as a GitHub-flavored markdown table.
func Markdown(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s** — %s\n\n", f.ID, f.Title)
	b.WriteString("| rate (req/s) |")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %s |", s.Label)
	}
	b.WriteString("\n|---|")
	for range f.Series {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for i, r := range f.Rates {
		fmt.Fprintf(&b, "| %.0f |", r)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %.1f |", s.Replicas[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckShape verifies the qualitative claims the paper draws from a
// three-method figure: at every sweep point random needs the most replicas
// and the oracle log-based needs no more than LessLog plus slack (LessLog
// is allowed to use "slightly more"). It returns a descriptive error on
// the first violated point.
func CheckShape(f Figure, slackFrac float64) error {
	idx := map[string]int{}
	for i, s := range f.Series {
		idx[s.Label] = i
	}
	li, ok1 := idx["lesslog"]
	ri, ok2 := idx["random"]
	gi, ok3 := idx["log-based"]
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("experiments: figure %s lacks the three method series", f.ID)
	}
	for i, rate := range f.Rates {
		ll := f.Series[li].Replicas[i]
		rnd := f.Series[ri].Replicas[i]
		lb := f.Series[gi].Replicas[i]
		if rnd < ll {
			return fmt.Errorf("%s rate=%.0f: random (%.1f) below lesslog (%.1f)", f.ID, rate, rnd, ll)
		}
		if lb > ll*(1+slackFrac)+1 {
			return fmt.Errorf("%s rate=%.0f: log-based (%.1f) above lesslog (%.1f) beyond slack", f.ID, rate, lb, ll)
		}
	}
	return nil
}

// EvictionPoint reports the §6 counter-based removal mechanism: balance at
// highRate, collapse to lowRate, evict replicas serving below minRate.
type EvictionPoint struct {
	HighRate, LowRate float64
	HoldersAtHigh     int
	Removed           int
	HoldersAfter      int
}

// evenSim builds the rate model of p's system: every node live, b
// fault-tolerance bits, rate req/s spread evenly.
func evenSim(p Params, b int, rate float64) (*loadsim.Sim, *liveness.Set) {
	live := liveness.NewAllLive(p.M, bitops.Slots(p.M))
	return loadsim.New(loadsim.Config{
		M: p.M, B: b, Target: p.Target, Cap: p.Cap,
		Live: live, Rates: workload.Even(rate, live), Seed: p.Seed,
	}), live
}

// Eviction runs the eviction demonstration for a set of high rates.
func Eviction(p Params, highRates []float64, lowRate, minRate float64) ([]EvictionPoint, error) {
	var out []EvictionPoint
	for _, hr := range highRates {
		sim, live := evenSim(p, 0, hr)
		if _, err := loadsim.Balance(replication.LessLog{}, 0, sim); err != nil {
			return nil, err
		}
		before := len(sim.Holders())
		sim.SetRates(workload.Even(lowRate, live))
		removed := sim.EvictCold(minRate)
		out = append(out, EvictionPoint{
			HighRate: hr, LowRate: lowRate,
			HoldersAtHigh: before, Removed: removed,
			HoldersAfter: len(sim.Holders()),
		})
	}
	return out, nil
}

// EvictionTable renders the eviction demonstration.
func EvictionTable(pts []EvictionPoint, lowRate float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "counter-based replica removal after a rate collapse to %.0f req/s (§6)\n", lowRate)
	fmt.Fprintf(&b, "%-14s%-16s%-10s%-14s\n", "balanced at", "holders before", "evicted", "holders after")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%-14.0f%-16d%-10d%-14d\n", pt.HighRate, pt.HoldersAtHigh, pt.Removed, pt.HoldersAfter)
	}
	return b.String()
}

// MaxSeriesGap returns the largest pointwise relative gap between two
// labeled series of a figure — used to assert Figure 6/8's "a similar
// number of replicas in all three configurations".
func MaxSeriesGap(f Figure, a, b string) (float64, error) {
	var sa, sb *Series
	for i := range f.Series {
		switch f.Series[i].Label {
		case a:
			sa = &f.Series[i]
		case b:
			sb = &f.Series[i]
		}
	}
	if sa == nil || sb == nil {
		return 0, fmt.Errorf("experiments: series %q or %q not found", a, b)
	}
	gap := 0.0
	for i := range sa.Replicas {
		den := math.Max(sa.Replicas[i], 1)
		g := math.Abs(sa.Replicas[i]-sb.Replicas[i]) / den
		if g > gap {
			gap = g
		}
	}
	return gap, nil
}
