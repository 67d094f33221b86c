package crc32c

import (
	"math/rand"
	"testing"
)

// combineParts sums each part and combines the sums left to right.
func combineParts(parts [][]byte) uint32 {
	sum := Sum(nil)
	for _, p := range parts {
		sum = Combine(sum, Sum(p), uint64(len(p)))
	}
	return sum
}

// TestCombineMatchesSum: random splits of random buffers into 1–40 parts —
// empty parts, 1-byte parts and ragged lengths included — combine to the sum
// of the whole.
func TestCombineMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		buf := make([]byte, rng.Intn(70_000))
		rng.Read(buf)
		n := 1 + rng.Intn(40)
		var parts [][]byte
		rest := buf
		for i := 0; i < n-1; i++ {
			var cut int
			switch rng.Intn(4) {
			case 0: // an empty part
			case 1:
				cut = 1
			default:
				cut = rng.Intn(len(rest) + 1)
			}
			if cut > len(rest) {
				cut = len(rest)
			}
			parts = append(parts, rest[:cut])
			rest = rest[cut:]
		}
		parts = append(parts, rest)
		if got, want := combineParts(parts), Sum(buf); got != want {
			t.Fatalf("round %d: %d bytes in %d parts combine to %08x, whole sums to %08x",
				round, len(buf), len(parts), got, want)
		}
	}
}

// TestCombineLongLengths exercises lengths no buffer can back on the
// operator alone: Combine(a, Sum(nil), n) advances a over n zero bytes, so
// advancing in two halves must land where advancing once does — and the
// operator agrees with a real pass where one is affordable.
func TestCombineLongLengths(t *testing.T) {
	if Sum(nil) != 0 {
		t.Fatalf("Sum(nil) = %08x: the operator-only form needs the empty sum to be zero", Sum(nil))
	}
	zeros := make([]byte, 1<<16+3)
	a := Sum([]byte("lesslog"))
	if got, want := Combine(a, Sum(zeros), uint64(len(zeros))), Sum(append([]byte("lesslog"), zeros...)); got != want {
		t.Fatalf("advance over %d real zero bytes: %08x, want %08x", len(zeros), got, want)
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []uint64{1 << 32, 1<<32 + 1, 3<<32 + 12345, 1<<40 - 1, 1 << 63, ^uint64(0)} {
		for i := 0; i < 20; i++ {
			a := rng.Uint32()
			h := n/2 + uint64(rng.Int63n(1<<20))%(n/2)
			whole := Combine(a, Sum(nil), n)
			halves := Combine(Combine(a, Sum(nil), h), Sum(nil), n-h)
			if whole != halves {
				t.Fatalf("advance %08x over %d: %08x, in halves %d+%d: %08x", a, n, whole, h, n-h, halves)
			}
		}
	}
}

// FuzzCombine: any buffer cut at any two points combines to its own sum.
func FuzzCombine(f *testing.F) {
	f.Add([]byte(nil), uint16(0), uint16(0))
	f.Add([]byte("a"), uint16(0), uint16(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(9), uint16(10))
	f.Add(make([]byte, 4097), uint16(4096), uint16(1))
	f.Fuzz(func(t *testing.T, b []byte, i, j uint16) {
		x := int(i) % (len(b) + 1)
		y := x + int(j)%(len(b)-x+1)
		if got, want := combineParts([][]byte{b[:x], b[x:y], b[y:]}), Sum(b); got != want {
			t.Fatalf("%d bytes cut at %d and %d combine to %08x, whole sums to %08x", len(b), x, y, got, want)
		}
	})
}

var sink uint32

// BenchmarkCombine is the price of knowing a whole-file sum from chunk sums:
// one operator multiply per 1 MiB chunk (ns/combine), against a pass over the
// chunk's bytes (BenchmarkSum1MiB). Each iteration combines a 1 GiB body's
// worth of chunk sums, so the one-iteration sweep of `make bench-smoke` reads
// a settled figure too.
func BenchmarkCombine(b *testing.B) {
	const chunks = 1024
	a, c := Sum([]byte("head")), Sum([]byte("tail"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < chunks; k++ {
			a = Combine(a, c, 1<<20)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chunks, "ns/combine")
	sink = a
}

func BenchmarkSum1MiB(b *testing.B) {
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Sum(buf)
	}
}
