package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestKnownVector(t *testing.T) {
	// Reference values from the canonical SplitMix64 implementation with
	// seed 1234567; pins the stream across refactors.
	r := New(1234567)
	want := []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("step %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) returned %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < draws/10-draws/50 || c > draws/10+draws/50 {
			t.Fatalf("Intn(10) value %d drawn %d times of %d, badly skewed", v, c, draws)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 returned %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, rawN uint16) bool {
		n := int(rawN)%257 + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.8) {
			hits++
		}
	}
	if frac := float64(hits) / draws; math.Abs(frac-0.8) > 0.01 {
		t.Fatalf("Bool(0.8) hit fraction %v", frac)
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(5)
	a := r.Fork()
	b := r.Fork()
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams start identically")
	}
}

func TestExpPositive(t *testing.T) {
	rng := New(1)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		d := rng.Exp(10)
		if d < 0 {
			t.Fatal("negative interarrival")
		}
		sum += d
	}
	if mean := sum / 10000; mean < 0.08 || mean > 0.12 {
		t.Fatalf("mean interarrival %v, want ~0.1", mean)
	}
}

func TestMul64MatchesBits(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		wantHi, wantLo := bits.Mul64(a, b)
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1024)
	}
	_ = sink
}
