package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotone(t *testing.T) {
	// Exhaustive over the small range, then spot checks across octaves:
	// indices never decrease, and every value lands within its bucket's
	// bound.
	prev := -1
	for v := uint64(0); v < 4096; v++ {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, prev)
		}
		prev = i
		if up := BucketUpper(i); v > up {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, up, i)
		}
	}
	for _, v := range []uint64{1 << 20, 1 << 33, 1 << 47, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		i := bucketIndex(v)
		if i < 0 || i >= HistBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if up := BucketUpper(i); v > up {
			t.Fatalf("value %d above its bucket upper %d", v, up)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000: exact nearest-rank answers are 500, 950, 990; bucketed
	// estimates must land within one bucket width (12.5%) above.
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 500500 || s.Max != 1000 {
		t.Fatalf("snapshot count=%d sum=%d max=%d", s.Count, s.Sum, s.Max)
	}
	for _, tc := range []struct{ q, exact float64 }{
		{0.5, 500}, {0.95, 950}, {0.99, 990}, {1, 1000},
	} {
		got := s.Quantile(tc.q)
		if got < tc.exact || got > tc.exact*1.125+1 {
			t.Fatalf("Quantile(%v) = %v, want within 12.5%% above %v", tc.q, got, tc.exact)
		}
	}
	if got := s.Quantile(0); got > 1 {
		t.Fatalf("Quantile(0) = %v, want first sample's bucket", got)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Count != 0 {
		t.Fatalf("empty histogram not zero: %+v", s)
	}
	h.Observe(7)
	s = h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 7", q, got)
		}
	}
	if s.Mean() != 7 || s.Max != 7 {
		t.Fatalf("single-sample mean=%v max=%d", s.Mean(), s.Max)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(-time.Second) // clamps to 0
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != uint64(3*time.Millisecond) {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
}

// TestHistogramConcurrent exercises the lock-free hot path and
// merge/snapshot under concurrent writers; run with -race.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(seed*31 + uint64(i)%1024)
			}
		}(uint64(w))
	}
	// Snapshots taken mid-flight must stay internally sane (count covers
	// the buckets seen so far, never panics).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			var sum uint64
			for _, c := range s.Buckets {
				sum += c
			}
			if sum > writers*perWriter {
				t.Errorf("snapshot buckets sum %d beyond total", sum)
				return
			}
			_ = s.Quantile(0.99)
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	// Merging two independent halves equals one histogram of the union.
	var a, b Histogram
	for v := uint64(0); v < 1000; v++ {
		if v%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(&sb)
	var whole Histogram
	for v := uint64(0); v < 1000; v++ {
		whole.Observe(v)
	}
	if sw := whole.Snapshot(); sa != sw {
		t.Fatal("merged halves differ from the whole")
	}
}

func TestPrometheusOutput(t *testing.T) {
	var h Histogram
	h.Observe(uint64(time.Millisecond))
	h.Observe(uint64(2 * time.Millisecond))
	snap := struct {
		Y uint64              `prom:"y_total"`
		X map[string]DistStat `prom:"x_seconds,kind=*,scale=1e-9"`
	}{Y: 3, X: map[string]DistStat{"get": h.Snapshot().DistStat(NsToMS)}}
	var b strings.Builder
	WritePrometheus(&b, "", snap)
	out := b.String()
	for _, want := range []string{
		"# TYPE y_total counter\ny_total 3\n",
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{kind="get",le="+Inf"} 2`,
		`x_seconds_count{kind="get"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 0xFFFFF)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0)
		for pb.Next() {
			v += 2654435761
			h.Observe(v & 0xFFFFF)
		}
	})
}
