package operators

import (
	"math"
	"testing"

	"borgmoea/internal/rng"
)

// checkPow fails t unless pow(x, y) has the bits of math.Pow(x, y).
func checkPow(t *testing.T, x, y float64) {
	t.Helper()
	got, want := pow(x, y), math.Pow(x, y)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pow(%v [%#x], %v) = %v [%#x], math.Pow %v [%#x]",
			x, math.Float64bits(x), y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// powExponents are the exponents the operators pass — SBX's and PM's
// ±(η+1) and 1/(η+1) at the defaults and at η = 20 and 15 swapped,
// SPX's 1/i — beside every integer the shortcut takes, the fraction
// boundaries and the special values.
func powExponents() []float64 {
	ys := []float64{0.5, -0.5, 0.4999999999999999, 0.5000000000000001, 5e-324, -5e-324,
		0, math.Copysign(0, -1), 1, -1, 32.5, 33, -33, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Nextafter(32, 0), math.Nextafter(-32, 0)}
	for _, eta := range []float64{15, 20} {
		ys = append(ys, 1/(eta+1), eta+1, -(eta + 1))
	}
	for i := 1; i < 12; i++ {
		ys = append(ys, 1/float64(i))
	}
	for n := -32; n <= 32; n++ {
		ys = append(ys, float64(n))
	}
	return ys
}

// powBases are the special and boundary bases: zeros, infinities, NaN,
// subnormals, both sides of the 2^±30 guard, negatives and the values
// around 1.
func powBases() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64,
		1, -1, math.Nextafter(1, 0), math.Nextafter(1, 2), 0.5, 2, 3, 1e-14, 1e14, 1.5e-308}
	for _, g := range []float64{0x1p-30, 0x1p30} {
		xs = append(xs, g, math.Nextafter(g, 0), math.Nextafter(g, math.Inf(1)))
	}
	for _, x := range xs[:len(xs):len(xs)] {
		xs = append(xs, -x)
	}
	return xs
}

// TestPowMatchesMathPow holds pow to math.Pow bit for bit: every
// special and boundary base against every exponent the operators use
// or the shortcut takes, then random bases spread over the whole
// exponent range and over [0, 2), the operators' own.
func TestPowMatchesMathPow(t *testing.T) {
	ys := powExponents()
	for _, x := range powBases() {
		for _, y := range ys {
			checkPow(t, x, y)
		}
	}
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		wide := math.Ldexp(r.Float64()+0.5, r.Intn(2100)-1075)
		if r.Intn(4) == 0 {
			wide = -wide
		}
		for _, x := range []float64{wide, 2 * r.Float64(), 1 + 2*r.Float64()/(r.Float64()+1e-14)} {
			checkPow(t, x, ys[r.Intn(len(ys))])
		}
	}
}

// FuzzPow lets the fuzzer hunt for an input on which pow and math.Pow
// disagree.
func FuzzPow(f *testing.F) {
	f.Add(0.3, 1/16.0)
	f.Add(1.7, -16.0)
	f.Add(0.9, 21.0)
	f.Add(0x1p30, 32.0)
	f.Add(-3.0, -31.0)
	f.Fuzz(func(t *testing.T, x, y float64) {
		checkPow(t, x, y)
		// The exponents the shortcut takes, so the fuzzer's bases meet
		// them whatever its y.
		checkPow(t, x, math.Trunc(math.Mod(y, 33)))
		checkPow(t, x, 1/(math.Abs(math.Trunc(math.Mod(y, 40)))+2))
	})
}
