// Package crc32c is the one CRC-32C (Castagnoli) the chunk planes share:
// Sum passes over bytes, Combine joins the sums of two adjacent byte ranges
// into the sum of their concatenation without touching either. Combine is
// what lets a peer that has checksummed a body chunk by chunk know the
// whole-file sum for free (docs/ROUTING.md "Checksums").
package crc32c

import (
	"hash/crc32"
	"math/bits"
)

var table = crc32.MakeTable(crc32.Castagnoli)

// Sum returns the CRC-32C of b.
func Sum(b []byte) uint32 { return crc32.Checksum(b, table) }

// operator is a 32×32 matrix over GF(2), one column per row of the slice:
// applied to a CRC register it advances the register over a fixed number of
// zero bytes.
type operator [32]uint32

// apply multiplies the operator by the register vec.
func (m *operator) apply(vec uint32) uint32 {
	var sum uint32
	for vec != 0 {
		sum ^= m[bits.TrailingZeros32(vec)]
		vec &= vec - 1
	}
	return sum
}

// shifts[k] advances a register over 2^k zero bytes. A length's operator is
// the product of the shifts of its set bits, so the chunk planes' lengths —
// the power-of-two chunk size and one ragged tail per body — cost one
// multiply and a handful.
var shifts = func() (s [64]operator) {
	// The operator for one zero bit: the reflected polynomial in row 0
	// (the bit shifted out feeds it back), a plain shift elsewhere.
	var bit operator
	bit[0] = crc32.Castagnoli
	for n := 1; n < 32; n++ {
		bit[n] = 1 << (n - 1)
	}
	square := func(m *operator) (sq operator) {
		for n := range sq {
			sq[n] = m.apply(m[n])
		}
		return sq
	}
	two := square(&bit)
	four := square(&two)
	s[0] = square(&four)
	for k := 1; k < len(s); k++ {
		s[k] = square(&s[k-1])
	}
	return s
}()

// Combine returns the CRC-32C of A‖B given a = Sum(A), b = Sum(B) and the
// length of B: crc(A‖B) = shift(crc(A), len B) ⊕ crc(B), the zlib
// crc32_combine construction over the Castagnoli polynomial.
func Combine(a, b uint32, lenB uint64) uint32 {
	for ; lenB != 0; lenB &= lenB - 1 {
		a = shifts[bits.TrailingZeros64(lenB)].apply(a)
	}
	return a ^ b
}
