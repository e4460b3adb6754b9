package problems

import (
	"math"
	"strconv"
	"strings"

	"borgmoea/internal/rng"
)

// SphereFront samples count points from the Pareto front shared by
// DTLZ2/3/4 and UF11: the unit hypersphere octant {f ≥ 0, ‖f‖₂ = 1}
// in m dimensions. Points are uniform on the octant surface.
func SphereFront(m, count int, seed uint64) [][]float64 {
	r := rng.New(seed)
	set := make([][]float64, count)
	for i := range set {
		p := make([]float64, m)
		for {
			n := 0.0
			for j := range p {
				p[j] = math.Abs(r.Norm())
				n += p[j] * p[j]
			}
			if n > 1e-20 {
				n = math.Sqrt(n)
				for j := range p {
					p[j] /= n
				}
				break
			}
		}
		set[i] = p
	}
	return set
}

// LinearFront samples count points from the DTLZ1 Pareto front
// {f ≥ 0, Σf = 0.5} uniformly over the simplex.
func LinearFront(m, count int, seed uint64) [][]float64 {
	r := rng.New(seed)
	set := make([][]float64, count)
	for i := range set {
		p := make([]float64, m)
		// Uniform simplex sampling via normalized exponentials.
		sum := 0.0
		for j := range p {
			p[j] = r.Exp(1)
			sum += p[j]
		}
		for j := range p {
			p[j] = 0.5 * p[j] / sum
		}
		set[i] = p
	}
	return set
}

// ReferenceFront returns count points sampled from the analytic
// Pareto front of the named problem, or nil when no analytic front is
// known. This is the shared selector the comparison tools use instead
// of hand-rolling the problem-name switch.
func ReferenceFront(name string, m, count int, seed uint64) [][]float64 {
	switch {
	case strings.HasPrefix(name, "DTLZ1"):
		return LinearFront(m, count, seed)
	case strings.HasPrefix(name, "DTLZ2"), strings.HasPrefix(name, "DTLZ3"),
		strings.HasPrefix(name, "DTLZ4"), name == "UF11":
		return SphereFront(m, count, seed)
	case strings.HasPrefix(name, "ZDT"):
		switch v, _ := strconv.Atoi(name[3:]); v {
		case 1, 2, 3, 4, 6:
			return ZDTFront(v, count)
		}
	}
	return nil
}

// IdealSphereHypervolume returns the exact hypervolume dominated by
// the continuous spherical front (DTLZ2/UF11) within [0, ref]^m:
//
//	ref^m − V_m/2^m,  V_m = π^{m/2}/Γ(m/2+1)
//
// the box volume minus the unit-ball orthant that the front cannot
// dominate. This is the paper's "ideal mathematical baseline": a
// normalized hypervolume of 1.
func IdealSphereHypervolume(m int, ref float64) float64 {
	if ref < 1 {
		panic("problems: reference point must dominate the nadir (ref >= 1)")
	}
	lg, _ := math.Lgamma(float64(m)/2 + 1)
	ballOrthant := math.Pow(math.Pi, float64(m)/2) / math.Exp(lg) / math.Pow(2, float64(m))
	return math.Pow(ref, float64(m)) - ballOrthant
}
