package rng

import (
	"math"
	"math/bits"
	"testing"
)

// mul64 is the hand-rolled 32-bit-limb product Intn used before
// math/bits.Mul64, kept verbatim as the oracle for the intrinsic.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	c = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// TestMul64MatchesReference: bits.Mul64 returns the limb product's
// (hi, lo) on the edge values and on 10⁵ random pairs, so Intn's draws
// are unchanged.
func TestMul64MatchesReference(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		t.Helper()
		wantHi, wantLo := mul64(a, b)
		if hi, lo := bits.Mul64(a, b); hi != wantHi || lo != wantLo {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), reference (%#x, %#x)", a, b, hi, lo, wantHi, wantLo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := New(2013)
	for i := 0; i < 100_000; i++ {
		check(r.Uint64(), r.Uint64())
	}
}
