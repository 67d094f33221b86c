// Package dynsim runs the paper's §8 future work: "implement LessLog in a
// large-scaled P2P system and obtain performance data in a real-world
// scenario where nodes dynamically join and leave the system." It drives
// the operational engine (internal/core) from a discrete-event scenario:
// Poisson request arrivals over a Zipf file popularity, a Poisson churn
// process mixing joins, graceful leaves and abrupt failures, and periodic
// maintenance windows running the logless overload check and the
// counter-based replica eviction.
//
// The scenario is fully seeded and replayable; EXPERIMENTS.md reports the
// availability-under-churn table produced by experiments.ChurnTable on
// top of this package (clearly marked as an extension beyond the paper's
// own figures).
package dynsim

import (
	"fmt"
	"math"

	"lesslog/internal/bitops"
	"lesslog/internal/core"
	"lesslog/internal/sim"
	"lesslog/internal/xrand"
)

// Scenario parameterizes one dynamic run.
type Scenario struct {
	M            int     // identifier width
	B            int     // fault-tolerance bits
	InitialNodes int     // live nodes at t=0
	Files        int     // files inserted at t=0
	ZipfS        float64 // file popularity skew (0 = uniform)

	RequestRate float64 // get arrivals per virtual second
	ChurnRate   float64 // membership events per virtual second
	JoinFrac    float64 // churn mix; fractions normalized internally
	LeaveFrac   float64
	FailFrac    float64
	MinNodes    int // churn never shrinks the system below this

	MaintenanceEvery  float64 // seconds between maintenance windows
	OverloadThreshold uint64  // window serve count that triggers replication
	EvictBelow        uint64  // window serve count below which replicas die

	Duration float64 // virtual seconds
	Seed     uint64
}

// DefaultScenario returns a moderate 256-node, B=1 configuration.
func DefaultScenario() Scenario {
	return Scenario{
		M: 8, B: 1, InitialNodes: 256, Files: 50, ZipfS: 1.0,
		RequestRate: 200, ChurnRate: 1, JoinFrac: 1, LeaveFrac: 1, FailFrac: 1,
		MinNodes: 32, MaintenanceEvery: 5, OverloadThreshold: 100, EvictBelow: 3,
		Duration: 120, Seed: 1,
	}
}

// WindowSample is one maintenance window's snapshot.
type WindowSample struct {
	At           sim.Time
	Nodes        int
	Requests     uint64  // cumulative
	Availability float64 // within this window
}

// Result aggregates one run.
type Result struct {
	Requests     uint64
	Faults       uint64
	Availability float64 // served / requests
	MeanHops     float64
	Joins        int
	Leaves       int
	Fails        int
	FinalNodes   int
	Stats        core.Stats
	Windows      []WindowSample // one per maintenance window
}

// String formats the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("requests=%d faults=%d availability=%.4f mean-hops=%.2f churn(j/l/f)=%d/%d/%d nodes=%d",
		r.Requests, r.Faults, r.Availability, r.MeanHops, r.Joins, r.Leaves, r.Fails, r.FinalNodes)
}

// Run executes the scenario to completion.
func Run(sc Scenario) (Result, error) {
	if sc.RequestRate <= 0 || sc.Duration <= 0 {
		return Result{}, fmt.Errorf("dynsim: request rate and duration must be positive")
	}
	if sc.MinNodes < 1 {
		sc.MinNodes = 1
	}
	cluster, err := core.New(core.Config{
		M: sc.M, B: sc.B, InitialNodes: sc.InitialNodes, Seed: sc.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	rng := xrand.New(sc.Seed)

	// Seed content.
	names := make([]string, sc.Files)
	for i := range names {
		names[i] = fmt.Sprintf("dyn/%04d", i)
		origin := bitops.PID(rng.Intn(sc.InitialNodes))
		if _, err := cluster.Insert(origin, names[i], []byte(names[i])); err != nil {
			return Result{}, err
		}
	}
	popCDF := zipfCDF(sc.Files, sc.ZipfS)

	var (
		eng    sim.Engine
		res    Result
		hopSum uint64
	)

	// Request arrival process.
	reqRNG := rng.Fork()
	var nextRequest func()
	nextRequest = func() {
		live := cluster.Live().LivePIDs()
		origin := live[reqRNG.Intn(len(live))]
		name := names[pickCDF(popCDF, reqRNG.Float64())]
		res.Requests++
		if g, err := cluster.Get(origin, name); err != nil {
			res.Faults++
		} else {
			hopSum += uint64(g.Hops)
		}
		eng.Schedule(sim.Time(reqRNG.Exp(sc.RequestRate)), nextRequest)
	}
	eng.Schedule(sim.Time(reqRNG.Exp(sc.RequestRate)), nextRequest)

	// Churn process.
	if sc.ChurnRate > 0 {
		churnRNG := rng.Fork()
		mix := sc.JoinFrac + sc.LeaveFrac + sc.FailFrac
		if mix <= 0 {
			return Result{}, fmt.Errorf("dynsim: churn mix is all zero")
		}
		var nextChurn func()
		nextChurn = func() {
			u := churnRNG.Float64() * mix
			switch {
			case u < sc.JoinFrac:
				if p, ok := randomDead(cluster, churnRNG); ok {
					if err := cluster.Join(p); err == nil {
						res.Joins++
					}
				}
			case u < sc.JoinFrac+sc.LeaveFrac:
				if cluster.NodeCount() > sc.MinNodes {
					live := cluster.Live().LivePIDs()
					if err := cluster.Leave(live[churnRNG.Intn(len(live))]); err == nil {
						res.Leaves++
					}
				}
			default:
				if cluster.NodeCount() > sc.MinNodes {
					live := cluster.Live().LivePIDs()
					if err := cluster.Fail(live[churnRNG.Intn(len(live))]); err == nil {
						res.Fails++
					}
				}
			}
			eng.Schedule(sim.Time(churnRNG.Exp(sc.ChurnRate)), nextChurn)
		}
		eng.Schedule(sim.Time(churnRNG.Exp(sc.ChurnRate)), nextChurn)
	}

	// Maintenance window: core.Cluster.Maintain runs the counter-based
	// eviction, the logless overload replication and a fresh counting
	// window, with one time-series sample per window.
	if sc.MaintenanceEvery > 0 {
		var prevReq, prevFaults uint64
		var maintain func()
		maintain = func() {
			cluster.Maintain(sc.OverloadThreshold, sc.EvictBelow)
			windowReq := res.Requests - prevReq
			windowFaults := res.Faults - prevFaults
			avail := 1.0
			if windowReq > 0 {
				avail = float64(windowReq-windowFaults) / float64(windowReq)
			}
			res.Windows = append(res.Windows, WindowSample{
				At:           eng.Now(),
				Nodes:        cluster.NodeCount(),
				Requests:     res.Requests,
				Availability: avail,
			})
			prevReq, prevFaults = res.Requests, res.Faults
			eng.Schedule(sim.Time(sc.MaintenanceEvery), maintain)
		}
		eng.Schedule(sim.Time(sc.MaintenanceEvery), maintain)
	}

	eng.RunUntil(sim.Time(sc.Duration))

	served := res.Requests - res.Faults
	if res.Requests > 0 {
		res.Availability = float64(served) / float64(res.Requests)
	}
	if served > 0 {
		res.MeanHops = float64(hopSum) / float64(served)
	}
	res.FinalNodes = cluster.NodeCount()
	res.Stats = cluster.Stats()
	return res, nil
}

// zipfCDF returns the cumulative popularity distribution of n files with
// exponent s (rank 1 most popular).
func zipfCDF(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := range w {
		acc += w[i] / sum
		cdf[i] = acc
	}
	cdf[n-1] = 1 // guard against rounding
	return cdf
}

// pickCDF returns the first index whose cumulative mass covers u.
func pickCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// randomDead samples a dead PID, or reports none within a bounded search.
func randomDead(c *core.Cluster, rng *xrand.Rand) (bitops.PID, bool) {
	live := c.Live()
	if live.LiveCount() == live.Slots() {
		return 0, false
	}
	for i := 0; i < 64; i++ {
		p := bitops.PID(rng.Intn(live.Slots()))
		if !live.IsLive(p) {
			return p, true
		}
	}
	// Dense systems: fall back to a scan.
	for p := 0; p < live.Slots(); p++ {
		if !live.IsLive(bitops.PID(p)) {
			return bitops.PID(p), true
		}
	}
	return 0, false
}
