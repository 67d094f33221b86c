package metrics

// Histogram is the wire-facing latency instrument: a lock-free,
// log-bucketed distribution safe for concurrent observation on RPC hot
// paths. Buckets are powers of two subdivided 4× (histSubBits), giving a
// worst-case relative quantile error of 1/8 across the full uint64 range —
// plenty for p50/p95/p99 on latencies — at a fixed 2 KiB per histogram and
// one atomic add per Observe. Snapshots are plain values that merge, so a
// fleet of per-peer histograms aggregates into one distribution.

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	histSubBits = 2 // sub-buckets per octave = 1<<histSubBits
	histSubs    = 1 << histSubBits
	// HistBuckets spans the whole uint64 range: values below histSubs get
	// an exact bucket each; every octave above contributes histSubs
	// buckets. 64 octaves × 4 + small values fits in 256.
	HistBuckets = 256
)

// bucketIndex maps a value to its bucket. Small values (< histSubs) are
// exact; larger values index by the position of the leading bit plus the
// next histSubBits bits, so bucket width grows geometrically.
func bucketIndex(v uint64) int {
	if v < histSubs {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the leading bit, ≥ histSubBits
	sub := (v >> (uint(exp) - histSubBits)) & (histSubs - 1)
	return ((exp - histSubBits + 1) << histSubBits) + int(sub)
}

// BucketUpper returns the inclusive upper bound of bucket i — the value
// quantile estimates report for samples landing in it.
func BucketUpper(i int) uint64 {
	if i < histSubs {
		return uint64(i)
	}
	exp := uint(i>>histSubBits) + histSubBits - 1
	sub := uint64(i & (histSubs - 1))
	return (histSubs+sub+1)<<(exp-histSubBits) - 1
}

// Histogram records a distribution of uint64 samples (by convention,
// nanoseconds for latencies; plain counts for sizes). The zero value is
// ready to use. All methods are safe for concurrent use; the hot path is
// three atomic adds and one CAS-bounded max update.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records d in nanoseconds (negative durations count as 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of samples observed so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures the histogram's current state. Concurrent observers
// may land between the bucket reads, so the snapshot is consistent only up
// to in-flight observations — fine for monitoring, which is its job.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: a plain value
// that can be merged, quantiled and serialized without further locking.
// The JSON shape is part of the stat-snapshot wire contract — lesslog-top
// decodes these off every peer and Merges them into fleet distributions.
type HistogramSnapshot struct {
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Max     uint64              `json:"max"`
	Buckets [HistBuckets]uint64 `json:"buckets"`
}

// Merge folds o into s, as if every sample observed by o had been
// observed by s's histogram too.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the sample mean, or 0 with no samples.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-quantile (q in [0,1]) by nearest rank over the
// buckets, reported as the containing bucket's upper bound — so estimates
// err high by at most one bucket width (≤ 1/8 relative). Returns 0 with no
// samples; q outside [0,1] is clamped.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return float64(BucketUpper(i))
		}
	}
	return float64(s.Max) // unreachable unless counts raced; report max
}

// NsToMS scales nanosecond samples to the milliseconds JSON snapshots report.
const NsToMS = 1e-6

// DistStat summarizes one distribution for a JSON stats snapshot. Latency
// distributions report milliseconds; size distributions (fan-out legs)
// report plain counts.
type DistStat struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`

	// The histogram summarized, kept off the wire so WritePrometheus can
	// export the whole distribution from the same snapshot field. Nil on a
	// summary decoded from JSON.
	src *HistogramSnapshot
}

// DistStat summarizes s, scaling samples by scale (NsToMS turns
// nanoseconds into milliseconds; 1 leaves counts alone).
func (s HistogramSnapshot) DistStat(scale float64) DistStat {
	return DistStat{
		Count: s.Count,
		Mean:  s.Mean() * scale,
		P50:   s.Quantile(0.5) * scale,
		P95:   s.Quantile(0.95) * scale,
		P99:   s.Quantile(0.99) * scale,
		Max:   float64(s.Max) * scale,
		src:   &s,
	}
}
