// Package metrics provides the small set of measurement types shared by
// the analytic simulator, the cluster engine, the networked node and the
// benchmark harness: monotonic counters, cheap streaming summaries,
// lock-free log-bucketed histograms with Prometheus text exposition, and
// the load summaries that decide when the paper's experiments declare the
// system balanced.
//
// Two concurrency tiers, chosen per call site: Counter and Summary are
// unsynchronized and belong to single-goroutine simulators; AtomicCounter
// and Histogram are safe for concurrent use and belong on RPC hot paths.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonic event counter.
//
// NOT safe for concurrent use: Inc/Add are plain read-modify-writes, so a
// Counter shared across goroutines both races and drops increments. It
// exists for the single-goroutine simulators and benchmark harnesses;
// anything touched from multiple goroutines — RPC paths, netnode handlers,
// the transport — must use AtomicCounter instead.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// AtomicCounter is a monotonic event counter safe for concurrent use — the
// form the networked transport needs, where many RPC goroutines bump the
// same counter. It is an atomic.Uint64 (Add, Load) with the Counter
// spellings on top, so one variable serves readers of either.
type AtomicCounter struct{ atomic.Uint64 }

// Inc adds one.
func (c *AtomicCounter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *AtomicCounter) Value() uint64 { return c.Load() }

// Reset zeroes the counter.
func (c *AtomicCounter) Reset() { c.Store(0) }

// Summary accumulates a stream of float64 observations and reports count,
// sum, mean, min and max without retaining the samples.
//
// NOT safe for concurrent use (unsynchronized fields, same caveat as
// Counter): it serves the single-goroutine simulators. Concurrent
// observers — anything on the networked request path — use Histogram,
// which is lock-free and additionally yields quantiles.
type Summary struct {
	count    int
	sum      float64
	min, max float64
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
}

// Count returns the number of samples.
func (s *Summary) Count() int { return s.count }

// Sum returns the sample sum.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the sample mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 { return s.max }

// String formats the summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f max=%.2f", s.count, s.Mean(), s.min, s.max)
}

// Quantiles returns the q-quantiles (each in [0,1]) of the samples using
// the nearest-rank method. The input slice is not modified.
func Quantiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for i, q := range qs {
		r := int(math.Ceil(q*float64(len(sorted)))) - 1
		if r < 0 {
			r = 0
		}
		if r >= len(sorted) {
			r = len(sorted) - 1
		}
		out[i] = sorted[r]
	}
	return out
}

// LoadSummary describes the per-holder serve loads of one simulator state.
type LoadSummary struct {
	Holders    int     // nodes holding a copy
	Overloaded int     // holders above the cap
	MaxLoad    float64 // heaviest holder
	MeanLoad   float64 // mean over holders
	TotalLoad  float64 // sum over holders == total request rate
}

// SummarizeLoads builds a LoadSummary from per-holder loads and a cap.
func SummarizeLoads(loads map[uint32]float64, cap float64) LoadSummary {
	var ls LoadSummary
	for _, l := range loads {
		ls.Holders++
		ls.TotalLoad += l
		if l > ls.MaxLoad {
			ls.MaxLoad = l
		}
		if l > cap {
			ls.Overloaded++
		}
	}
	if ls.Holders > 0 {
		ls.MeanLoad = ls.TotalLoad / float64(ls.Holders)
	}
	return ls
}

// String formats the load summary.
func (ls LoadSummary) String() string {
	return fmt.Sprintf("holders=%d overloaded=%d max=%.1f mean=%.1f total=%.1f",
		ls.Holders, ls.Overloaded, ls.MaxLoad, ls.MeanLoad, ls.TotalLoad)
}
