// Package tracering keeps the always-on trace plane affordable: every
// node head-samples 1-in-N of the requests entering it (stamping the
// trace section the wire protocol already carries) and retains the
// finished traces in a bounded in-memory ring. Two tiers protect the
// interesting tail: the recent ring holds whatever finished last, while
// the notable ring holds slow and errored traces only, so a burst of
// healthy traffic cannot evict the one trace an operator actually needs.
// Log-structured systems buy this visibility with access logs (paper §1);
// LessLog gets it from sampling — no log is ever written.
//
// Everything here is node-local and allocation-bounded: a Ring costs
// O(capacity) memory, Sampler.Sample is one atomic add, and recording a
// trace takes one short critical section. Snapshots are plain values that
// serialize to JSON for the /traces admin endpoint and `-op traces`.
package tracering

import (
	"sync"
	"sync/atomic"
	"time"

	"lesslog/internal/msg"
)

// Defaults for the sampling knobs. 1-in-128 keeps tracing overhead to a
// rounding error at bench rates while a busy peer still lands several
// traces per second; 25ms is far above a healthy in-process RPC chain and
// far below a timeout, so "slow" means "worth keeping".
const (
	DefaultSampleEvery = 128
	DefaultSlow        = 25 * time.Millisecond
	DefaultRingSize    = 256
)

// Sampler decides which entering requests get a trace stamped: plain
// 1-in-N head sampling on an atomic counter, so concurrent entry points
// share one budget. N=1 traces everything (tests, debugging); the zero
// value samples nothing until configured.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler returns a head sampler stamping one trace per every
// requests. every <= 0 selects DefaultSampleEvery.
func NewSampler(every int) *Sampler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether this request is the 1-in-N winner.
func (s *Sampler) Sample() bool {
	if s == nil || s.every == 0 {
		return false
	}
	return s.n.Add(1)%s.every == 1 || s.every == 1
}

// IDSeq hands out trace IDs: a splitmix64 sequence, so IDs are well spread
// and never zero, and concurrent entry points draw from it without a lock.
// Seed it with something that differs between nodes and between restarts;
// the zero value is a valid, fixed sequence.
type IDSeq struct{ n atomic.Uint64 }

// Seed sets the sequence's position.
func (s *IDSeq) Seed(v uint64) { s.n.Store(v) }

// Next returns a fresh non-zero trace ID.
func (s *IDSeq) Next() uint64 {
	x := s.n.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Trace is one finished, assembled trace: the identifiers a client or
// scraper needs to correlate it, the outcome, and the hop tree the wire
// carried back. Hops may be empty for tail-retained traces (a slow or
// errored request that was not head-sampled still lands here, hop-less —
// the outcome is the evidence, the route is gone).
type Trace struct {
	ID    uint64        `json:"id"`
	Kind  string        `json:"kind"`
	Name  string        `json:"name,omitempty"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Err   string        `json:"err,omitempty"`
	Hops  []msg.Hop     `json:"hops,omitempty"`
}

// Slow reports whether the trace took at least threshold.
func (t *Trace) Slow(threshold time.Duration) bool {
	return threshold > 0 && t.Dur >= threshold
}

// ring is one bounded FIFO of traces.
type ring struct {
	buf  []Trace
	next int
	full bool
}

func (r *ring) add(t Trace) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot returns the ring's contents, oldest first.
func (r *ring) snapshot() []Trace {
	if !r.full {
		return append([]Trace(nil), r.buf[:r.next]...)
	}
	out := make([]Trace, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Ring retains finished traces in two bounded tiers: recent (every
// recorded trace, evicted FIFO) and notable (slow or errored traces only,
// evicted FIFO among themselves — healthy traffic never pushes them out).
// Safe for concurrent use.
type Ring struct {
	slow time.Duration

	mu      sync.Mutex
	recent  ring
	notable ring

	recorded atomic.Uint64 // traces recorded in total
	noted    atomic.Uint64 // of those, slow or errored
}

// NewRing returns a trace ring keeping size recent traces and size/2
// notable ones. size <= 0 selects DefaultRingSize; slow <= 0 selects
// DefaultSlow.
func NewRing(size int, slow time.Duration) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	if slow <= 0 {
		slow = DefaultSlow
	}
	notable := size / 2
	if notable < 1 {
		notable = 1
	}
	return &Ring{
		slow:    slow,
		recent:  ring{buf: make([]Trace, size)},
		notable: ring{buf: make([]Trace, notable)},
	}
}

// Slow returns the ring's slow-trace threshold.
func (r *Ring) Slow() time.Duration {
	if r == nil {
		return 0
	}
	return r.slow
}

// Record retains one finished trace. Nil rings drop silently, so callers
// can leave tracing unconfigured without branching.
func (r *Ring) Record(t Trace) {
	if r == nil {
		return
	}
	notable := t.Err != "" || t.Slow(r.slow)
	r.recorded.Add(1)
	if notable {
		r.noted.Add(1)
	}
	r.mu.Lock()
	r.recent.add(t)
	if notable {
		r.notable.add(t)
	}
	r.mu.Unlock()
}

// Snapshot is the JSON shape of a ring: totals plus both tiers, oldest
// first. SlowNS carries the threshold so readers can interpret Notable.
type Snapshot struct {
	Recorded uint64  `json:"recorded"`
	Noted    uint64  `json:"noted"`
	SlowNS   int64   `json:"slow_ns"`
	Recent   []Trace `json:"recent"`
	Notable  []Trace `json:"notable"`
}

// Snapshot copies the ring's current contents. Nil rings snapshot empty.
func (r *Ring) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Snapshot{
		Recorded: r.recorded.Load(),
		Noted:    r.noted.Load(),
		SlowNS:   int64(r.slow),
		Recent:   r.recent.snapshot(),
		Notable:  r.notable.snapshot(),
	}
}

// Recorded returns the total traces recorded so far.
func (r *Ring) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.recorded.Load()
}

// Noted returns the slow-or-errored traces recorded so far.
func (r *Ring) Noted() uint64 {
	if r == nil {
		return 0
	}
	return r.noted.Load()
}
