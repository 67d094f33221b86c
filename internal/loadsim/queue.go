package loadsim

import (
	"fmt"
	"math"
	"sort"

	"lesslog/internal/bitops"
	"lesslog/internal/metrics"
	"lesslog/internal/sim"
	"lesslog/internal/xrand"
)

// QueueConfig parameterizes Queue. The placement, the lookup tree and the
// per-origin rates are the Sim's own.
type QueueConfig struct {
	HopLatency  float64 // one-way network latency per forwarding hop, seconds
	ServiceTime float64 // per-request service time at a holder, seconds
	Duration    float64 // simulated seconds
	WarmUp      float64 // discard requests issued before this time
	Seed        uint64  // randomness for the arrival streams
}

// QueueResult summarizes the measured response times (request issue to
// response arrival back at the origin), in seconds.
type QueueResult struct {
	Served     int
	Mean       float64
	P50        float64
	P95        float64
	P99        float64
	Max        float64
	MaxBacklog int // longest queue observed at any holder
}

// String formats the latency summary in milliseconds.
func (r QueueResult) String() string {
	return fmt.Sprintf("served=%d mean=%.1fms p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms backlog=%d",
		r.Served, r.Mean*1e3, r.P50*1e3, r.P95*1e3, r.P99*1e3, r.Max*1e3, r.MaxBacklog)
}

// Queue measures response times under the current placement. It turns the
// paper's load-balance criterion ("no node receives more than 100 requests
// per second") into the quantity operators feel: every live origin issues
// Poisson arrivals at its rate, each request travels its route's hops at
// HopLatency apiece to the holder route picks, and every holder is a FIFO
// single server with a fixed ServiceTime. A holder driven past its service
// rate builds an unbounded queue; the balanced placement keeps every
// queue's utilization below one. The model is deliberately simple
// (deterministic service, FIFO, no loss) so results are explainable with
// M/D/1 intuition.
//
// The per-origin streams are forked from Seed in ascending origin order
// and merged on one sim.Engine.
func (s *Sim) Queue(cfg QueueConfig) (QueueResult, error) {
	if cfg.Duration <= 0 || cfg.ServiceTime <= 0 {
		return QueueResult{}, fmt.Errorf("loadsim: duration and service time must be positive")
	}
	var (
		eng        sim.Engine
		busyUntil  = map[bitops.PID]float64{}
		latencies  []float64
		maxBacklog int
	)
	rng := xrand.New(cfg.Seed)
	s.cfg.Live.ForEachLive(func(origin bitops.PID) {
		rate := s.cfg.Rates[origin]
		if rate == 0 {
			return
		}
		server, _, hops := s.route(origin)
		delay := float64(hops) * cfg.HopLatency
		stream := rng.Fork()
		var arrive func()
		arrive = func() {
			at := float64(eng.Now())
			atServer := at + delay
			start := max(atServer, busyUntil[server])
			done := start + cfg.ServiceTime
			busyUntil[server] = done
			// Backlog proxy: jobs this one waits behind, plus itself.
			maxBacklog = max(maxBacklog, int(math.Round((start-atServer)/cfg.ServiceTime))+1)
			if at >= cfg.WarmUp {
				latencies = append(latencies, done+delay-at)
			}
			eng.Schedule(sim.Time(stream.Exp(rate)), arrive)
		}
		eng.Schedule(sim.Time(stream.Exp(rate)), arrive)
	})
	eng.RunUntil(sim.Time(cfg.Duration))
	if len(latencies) == 0 {
		return QueueResult{}, fmt.Errorf("loadsim: no completions after warm-up")
	}
	sort.Float64s(latencies)
	qs := metrics.Quantiles(latencies, 0.5, 0.95, 0.99)
	sum := 0.0
	for _, l := range latencies {
		sum += l
	}
	return QueueResult{
		Served: len(latencies),
		Mean:   sum / float64(len(latencies)),
		P50:    qs[0], P95: qs[1], P99: qs[2],
		Max:        latencies[len(latencies)-1],
		MaxBacklog: maxBacklog,
	}, nil
}
