package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"lesslog/internal/metrics"
)

// windowSlices is how many slices the window is cut into for the metrics
// that are read as a median over them (bytes allocated per op, the live heap).
const windowSlices = 20

// mark is the running totals at a slice boundary.
type mark struct {
	t     time.Time
	ops   int
	bytes int64
	cpu   time.Duration
	alloc uint64 // heap bytes allocated so far
	live  uint64 // heap bytes the last completed GC cycle found live
}

// window is what one closed loop measured. Latency samples are exact and
// preallocated: the timed loop appends into capacity it already has.
type window struct {
	lat   [opKinds][]int64 // ns, one per completed op
	marks []mark           // window start, then one per slice end
	// wholeBlocks ends a slice, and so the window, on the first whole block
	// of the op stream past its time: each then holds the workload's mix
	// exactly, and bytes allocated per op repeat from slice to slice.
	wholeBlocks bool
	attempted   int
	failed      int
	firstErr    error
	// The traced pass counts, per kind, the ops that paid a locate walk and
	// the ops a cache answered without touching the fabric.
	located, cached [opKinds]int
}

func newWindow(sp spec, maxOps int) *window {
	w := &window{marks: make([]mark, 0, windowSlices+2)}
	for k := range w.lat {
		if sp.mix[k] > 0 {
			// A kind's share of maxOps, with room for the random mix to wander.
			w.lat[k] = make([]int64, 0, int(float64(maxOps)*sp.mix[k]*1.2)+64)
		}
	}
	return w
}

// takeMark reads the clocks a slice boundary records.
func takeMark(t time.Time, ops int, bytes int64) mark {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(sample)
	return mark{
		t: t, ops: ops, bytes: bytes, cpu: cpuTime(),
		alloc: sample[0].Value.Uint64(), live: sample[1].Value.Uint64(),
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLoop is the closed loop: one goroutine, one op in flight. It runs ops
// through e until dur has passed (or the stream ends) and records each op's
// latency from just before the call to just after the reply; the payload is
// checked after the stop timestamp. With a span log it also records the
// op's spans (the traced pass). It reports whether the stream ended first.
func runLoop(st *state, e edge, ops []op, dur time.Duration, w *window, spans *spanLog) (ranOut bool) {
	prep, _ := e.(preparer)
	var rt router
	var ca cacher
	if spans != nil {
		rt, _ = e.(router)
		ca, _ = e.(cacher)
	}
	start := time.Now()
	sliceDur := dur / windowSlices
	nextMark := start.Add(sliceDur)
	var bytes int64
	w.marks = append(w.marks, takeMark(start, 0, 0))
	for _, o := range ops {
		var opStart time.Time
		if spans != nil {
			opStart = time.Now()
		}
		kind, name := st.resolve(o)
		var payload []byte
		if kind == opUpdate || kind == opInsert {
			payload = st.payload(name, int(st.seq[name]+1)%len(st.variants))
		}
		var err error
		if prep != nil {
			err = prep.prepare(kind, st.names[name])
		}
		var data []byte
		var locates, fabricOps uint64
		if rt != nil {
			locates = rt.locates()
		}
		if ca != nil {
			fabricOps = ca.fabricOps()
		}
		t0 := time.Now()
		if err == nil {
			if kind == opGet {
				data, err = e.get(st.names[name])
			} else {
				err = e.write(kind, st.names[name], payload)
			}
		}
		t1 := time.Now()
		if err == nil {
			st.commit(kind, name)
			if kind == opGet {
				err = st.verify(name, data)
			}
		}
		w.attempted++
		if err != nil {
			// A failed op counts as missing every latency: no sample.
			w.failed++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("%s %s: %w", opNames[kind], st.names[name], err)
			}
		} else {
			w.lat[kind] = append(w.lat[kind], int64(t1.Sub(t0)))
			if kind != opDelete {
				bytes += int64(st.spec.size)
			}
		}
		if rt != nil && rt.locates() != locates {
			w.located[kind]++
		}
		if ca != nil && ca.fabricOps() == fabricOps {
			w.cached[kind]++
		}
		if spans != nil {
			spans.op(kind, opStart, t0, t1, time.Now())
		}
		if t1.After(nextMark) && (!w.wholeBlocks || w.attempted%mixBlock == 0) {
			w.marks = append(w.marks, takeMark(t1, w.ok(), bytes))
			for !nextMark.After(t1) {
				nextMark = nextMark.Add(sliceDur)
			}
			if t1.Sub(start) >= dur {
				return false
			}
		}
	}
	w.marks = append(w.marks, takeMark(time.Now(), w.ok(), bytes))
	return true
}

// ok is the number of ops that completed and verified.
func (w *window) ok() int { return w.attempted - w.failed }

func (w *window) elapsed() time.Duration {
	return w.marks[len(w.marks)-1].t.Sub(w.marks[0].t)
}

// perSlice returns the median over slices of f(previous mark, this mark).
func (w *window) perSlice(f func(a, b mark) float64) float64 {
	vals := make([]float64, 0, len(w.marks))
	for i := 1; i < len(w.marks); i++ {
		vals = append(vals, f(w.marks[i-1], w.marks[i]))
	}
	return median(vals)
}

func median(vals []float64) float64 { return metrics.Quantiles(vals, 0.5)[0] }

// quantilesMS is the q-quantiles of ns samples by nearest rank, in ms.
func quantilesMS(ns []int64, qs ...float64) []float64 {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	return metrics.Quantiles(ms, qs...)
}

func quantileMS(ns []int64, q float64) float64 { return quantilesMS(ns, q)[0] }

func meanMS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return float64(sum) / float64(len(ns)) / 1e6
}
