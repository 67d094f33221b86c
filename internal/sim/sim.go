// Package sim is a small deterministic discrete-event engine: a virtual
// clock and a priority queue of scheduled callbacks. The dynamic-scenario
// simulator (internal/dynsim) runs the paper's §8 future work on top of it
// — "obtain performance data in a real-world scenario where nodes
// dynamically join and leave the system" — with request arrivals, churn
// processes and maintenance windows all as events; the rate model's
// queueing latency (loadsim.Queue) merges its per-origin arrival streams
// on it.
//
// Determinism: ties in virtual time break by schedule order (a strictly
// increasing sequence number), so a seeded scenario replays identically.
package sim

import (
	"container/heap"
	"math"
)

// Time is virtual time in seconds.
type Time float64

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event executor. The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	ran    uint64
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns how many events have run.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending returns how many events are scheduled.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after delay virtual seconds. Negative delays clamp to
// zero (run at the current instant, after already-queued same-time
// events).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 || math.IsNaN(float64(delay)) {
		delay = 0
	}
	e.seq++
	heap.Push(&e.events, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Step runs the next event and reports whether one existed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(event)
	e.now = ev.at
	e.ran++
	ev.fn()
	return true
}

// RunUntil executes events in timestamp order until the clock passes
// deadline or the queue drains. Events scheduled exactly at the deadline
// still run. It returns the number of events executed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.ran
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.ran - start
}

// Drain runs every remaining event (use only with self-limiting
// schedules). It returns the number executed.
func (e *Engine) Drain() uint64 {
	start := e.ran
	for e.Step() {
	}
	return e.ran - start
}
