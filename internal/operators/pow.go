//go:build !s390x

package operators

import "math"

// pow returns math.Pow(x, y), bit for bit, without its general path
// for the exponents the operators use: a fraction 1/(η+1) or 1/i, and
// ±(η+1).
//
// On every port but s390x (whose Pow is assembly; see pow_s390x.go),
// math.Pow is portable Go. For 0 < y < 0.5 and finite x > 0 it returns
// Ldexp(Exp(y*Log(x)), 0), and Ldexp by 0 is the identity. For an
// integer y it squares the Frexp mantissa of x in the order of the
// bits of |y|, keeping the exponent apart, and inverts last. A product
// or quotient of normal numbers rounds the same whatever powers of two
// scale them, so for |y| <= 32 and 2^-30 <= |x| <= 2^30, where every
// power, product and inverse stays within [2^-960, 2^960], squaring x
// itself in the same order gives the same bits. Every other input goes
// to math.Pow; TestPowMatchesMathPow and FuzzPow hold the two equal.
func pow(x, y float64) float64 {
	if 0 < y && y < 0.5 {
		if 0 < x && x <= math.MaxFloat64 {
			return math.Exp(y * math.Log(x))
		}
		return math.Pow(x, y)
	}
	if a := math.Abs(x); -32 <= y && y <= 32 && 0x1p-30 <= a && a <= 0x1p30 {
		if n := int(y); float64(n) == y {
			return powInt(x, n)
		}
	}
	return math.Pow(x, y)
}

// powInt returns x**n by repeated squaring over the bits of |n|, low
// bit first, inverting at the end for n < 0 — math.Pow's order.
func powInt(x float64, n int) float64 {
	k := n
	if k < 0 {
		k = -k
	}
	a := 1.0
	for {
		if k&1 == 1 {
			a *= x
		}
		if k >>= 1; k == 0 {
			break
		}
		x *= x
	}
	if n < 0 {
		a = 1 / a
	}
	return a
}
