package operators

import (
	"fmt"
	"math"
	"testing"

	"borgmoea/internal/rng"
)

// This file keeps the multi-child operators as they were before Child
// existed — the six Apply bodies and WithPM.Apply, with the helpers
// they called, verbatim apart from a ref prefix on each name — as the
// oracle for Child and for the Apply now built on the same arithmetic.

func refApply(op Operator, parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	switch op := op.(type) {
	case SBX:
		return op.refApply(parents, lo, hi, r)
	case DE:
		return op.refApply(parents, lo, hi, r)
	case PCX:
		return op.refApply(parents, lo, hi, r)
	case SPX:
		return op.refApply(parents, lo, hi, r)
	case UNDX:
		return op.refApply(parents, lo, hi, r)
	case UM:
		return op.refApply(parents, lo, hi, r)
	case PM:
		return op.refApply(parents, lo, hi, r)
	case WithPM:
		return op.refApply(parents, lo, hi, r)
	}
	panic(fmt.Sprintf("refApply: no reference for %T", op))
}

func (op WithPM) refApply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	children := refApply(op.Base, parents, lo, hi, r)
	for i, c := range children {
		children[i] = op.Mutation.refApply([][]float64{c}, lo, hi, r)[0]
	}
	return children
}

func (op SBX) refApply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	refCheckParents(op, parents, lo, hi)
	c1 := refClone(parents[0])
	c2 := refClone(parents[1])
	if r.Float64() > op.Rate {
		return [][]float64{c1, c2}
	}
	for i := range c1 {
		// Each variable participates with probability 0.5, the
		// standard per-variable gating.
		if r.Float64() > 0.5 {
			continue
		}
		x1, x2 := c1[i], c2[i]
		if math.Abs(x1-x2) < 1e-14 {
			continue
		}
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		lb, ub := lo[i], hi[i]
		u := r.Float64()
		y1 := refSBXChild(x1, x2, lb, ub, u, op.DistributionIndex, true)
		y2 := refSBXChild(x1, x2, lb, ub, u, op.DistributionIndex, false)
		// Randomly swap which child gets which side, as in Deb's
		// reference implementation.
		if r.Float64() < 0.5 {
			y1, y2 = y2, y1
		}
		c1[i], c2[i] = y1, y2
	}
	refClamp(c1, lo, hi)
	refClamp(c2, lo, hi)
	return [][]float64{c1, c2}
}

func refSBXChild(x1, x2, lb, ub, u, eta float64, lower bool) float64 {
	dx := x2 - x1
	var beta float64
	if lower {
		beta = 1 + 2*(x1-lb)/dx
	} else {
		beta = 1 + 2*(ub-x2)/dx
	}
	alpha := 2 - math.Pow(beta, -(eta+1))
	var betaq float64
	if u <= 1/alpha {
		betaq = math.Pow(u*alpha, 1/(eta+1))
	} else {
		betaq = math.Pow(1/(2-u*alpha), 1/(eta+1))
	}
	if lower {
		return 0.5 * ((x1 + x2) - betaq*dx)
	}
	return 0.5 * ((x1 + x2) + betaq*dx)
}

func (op PM) refApply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	refCheckParents(op, parents, lo, hi)
	child := refClone(parents[0])
	p := op.Probability
	if p == 0 {
		p = 1 / float64(len(child))
	}
	eta := op.DistributionIndex
	for i := range child {
		if r.Float64() > p {
			continue
		}
		x := child[i]
		lb, ub := lo[i], hi[i]
		if ub <= lb {
			continue
		}
		d1 := (x - lb) / (ub - lb)
		d2 := (ub - x) / (ub - lb)
		u := r.Float64()
		mpow := 1 / (eta + 1)
		var deltaq float64
		if u < 0.5 {
			xy := 1 - d1
			val := 2*u + (1-2*u)*math.Pow(xy, eta+1)
			deltaq = math.Pow(val, mpow) - 1
		} else {
			xy := 1 - d2
			val := 2*(1-u) + (2*u-1)*math.Pow(xy, eta+1)
			deltaq = 1 - math.Pow(val, mpow)
		}
		child[i] = x + deltaq*(ub-lb)
	}
	refClamp(child, lo, hi)
	return [][]float64{child}
}

func (op DE) refApply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	refCheckParents(op, parents, lo, hi)
	base, a, b, c := parents[0], parents[1], parents[2], parents[3]
	child := refClone(base)
	n := len(child)
	jrand := r.Intn(n)
	for i := range child {
		if r.Float64() <= op.CrossoverRate || i == jrand {
			child[i] = a[i] + op.StepSize*(b[i]-c[i])
		}
	}
	refClamp(child, lo, hi)
	return [][]float64{child}
}

func (op PCX) refApply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	refCheckParents(op, parents, lo, hi)
	n := len(parents[0])
	g := refCentroid(parents)

	// Principal direction: index parent minus centroid.
	d := refSub(parents[0], g)
	dLen := refNorm(d)

	child := refClone(parents[0])
	if dLen < 1e-12 {
		// Degenerate: parents collapsed onto the centroid along the
		// index direction; fall back to an isotropic Gaussian wobble
		// of Eta scale so the operator still explores.
		for i := range child {
			child[i] += r.Norm() * op.Eta * (hi[i] - lo[i]) * 0.01
		}
		refClamp(child, lo, hi)
		return [][]float64{child}
	}

	dHat := refClone(d)
	refNormalize(dHat)

	// Mean perpendicular distance of the other parents to the dHat
	// line through g.
	dBar := 0.0
	counted := 0
	for _, p := range parents[1:] {
		v := refSub(p, g)
		along := refDot(v, dHat)
		perp2 := refDot(v, v) - along*along
		if perp2 > 0 {
			dBar += math.Sqrt(perp2)
		}
		counted++
	}
	if counted > 0 {
		dBar /= float64(counted)
	}

	// Orthonormal basis of the subspace perpendicular to dHat, built
	// by Gram-Schmidt from the remaining parent directions and, if
	// rank-deficient, random vectors.
	basis := [][]float64{dHat}
	for _, p := range parents[1:] {
		if len(basis) >= n {
			break
		}
		v := refSub(p, g)
		if refOrthogonalize(v, basis) > 1e-10 && refNormalize(v) {
			basis = append(basis, v)
		}
	}
	for len(basis) < n {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Norm()
		}
		if refOrthogonalize(v, basis) > 1e-10 && refNormalize(v) {
			basis = append(basis, v)
		}
	}

	// Offspring = parent + wζ·d + Σ wη·D̄·e_j over the perpendicular
	// basis vectors.
	wz := r.Norm() * op.Zeta
	for i := range child {
		child[i] += wz * d[i]
	}
	for _, e := range basis[1:] {
		we := r.Norm() * op.Eta * dBar
		for i := range child {
			child[i] += we * e[i]
		}
	}
	refClamp(child, lo, hi)
	return [][]float64{child}
}

func (op SPX) refApply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	refCheckParents(op, parents, lo, hi)
	k := len(parents)
	n := len(parents[0])
	g := refCentroid(parents)

	// Expanded vertices y_i = g + ε(x_i − g).
	y := make([][]float64, k)
	for i, p := range parents {
		v := make([]float64, n)
		for j := range v {
			v[j] = g[j] + op.Epsilon*(p[j]-g[j])
		}
		y[i] = v
	}

	// Uniform sampling from the simplex via Tsutsui's recurrence:
	// c_0 = 0; c_i = r_{i-1}(y_{i-1} − y_i + c_{i-1}); child = y_{k-1} + c_{k-1},
	// with r_i = u^{1/(i+1)}.
	c := make([]float64, n)
	for i := 1; i < k; i++ {
		ri := math.Pow(r.Float64(), 1/float64(i))
		for j := 0; j < n; j++ {
			c[j] = ri * (y[i-1][j] - y[i][j] + c[j])
		}
	}
	child := make([]float64, n)
	for j := 0; j < n; j++ {
		child[j] = y[k-1][j] + c[j]
	}
	refClamp(child, lo, hi)
	return [][]float64{child}
}

func (op UM) refApply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	refCheckParents(op, parents, lo, hi)
	return [][]float64{op.refMutate(parents[0], lo, hi, r)}
}

func (op UM) refMutate(parent, lo, hi []float64, r *rng.Source) []float64 {
	child := refClone(parent)
	p := op.Probability
	if p == 0 {
		p = 1 / float64(len(child))
	}
	for i := range child {
		if r.Float64() <= p {
			child[i] = r.Range(lo[i], hi[i])
		}
	}
	return child
}

func (op UNDX) refApply(parents [][]float64, lo, hi []float64, r *rng.Source) [][]float64 {
	refCheckParents(op, parents, lo, hi)
	k := len(parents)
	n := len(parents[0])
	m := k - 1 // parents spanning the primary subspace

	g := refCentroid(parents[:m])

	// Primary directions d_i = x_i − g, orthonormalized to a basis of
	// the primary subspace; each contributes a Gaussian component
	// scaled by its own length (classic UNDX-m).
	child := refClone(g)
	basis := make([][]float64, 0, n)
	for _, p := range parents[:m] {
		d := refSub(p, g)
		dLen := refNorm(d)
		if dLen < 1e-12 {
			continue
		}
		e := refClone(d)
		if refOrthogonalize(e, basis) < 1e-10 || !refNormalize(e) {
			continue
		}
		basis = append(basis, e)
		w := r.Norm() * op.Zeta * dLen
		for i := range child {
			child[i] += w * e[i]
		}
	}

	// Orthogonal complement: scale D is the distance from the last
	// parent to the primary subspace.
	dLast := refSub(parents[k-1], g)
	bigD := refOrthogonalize(dLast, basis)
	if bigD > 1e-12 && n > len(basis) {
		sigma := op.Eta / math.Sqrt(float64(n))
		for len(basis) < n {
			v := make([]float64, n)
			for i := range v {
				v[i] = r.Norm()
			}
			if refOrthogonalize(v, basis) < 1e-10 || !refNormalize(v) {
				continue
			}
			basis = append(basis, v)
			w := r.Norm() * sigma * bigD
			for i := range child {
				child[i] += w * v[i]
			}
		}
	}
	refClamp(child, lo, hi)
	return [][]float64{child}
}

func refClamp(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		} else if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

func refCheckParents(op Operator, parents [][]float64, lo, hi []float64) {
	if len(parents) != op.Arity() {
		panic(fmt.Sprintf("operators: %s requires %d parents, got %d",
			op.Name(), op.Arity(), len(parents)))
	}
	n := len(lo)
	if len(hi) != n {
		panic("operators: bounds length mismatch")
	}
	for _, p := range parents {
		if len(p) != n {
			panic(fmt.Sprintf("operators: %s parent length %d != %d variables",
				op.Name(), len(p), n))
		}
	}
}

func refClone(x []float64) []float64 {
	return append([]float64(nil), x...)
}

func refCentroid(vs [][]float64) []float64 {
	g := make([]float64, len(vs[0]))
	for _, v := range vs {
		for i, x := range v {
			g[i] += x
		}
	}
	inv := 1 / float64(len(vs))
	for i := range g {
		g[i] *= inv
	}
	return g
}

func refSub(a, b []float64) []float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

func refDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func refNorm(a []float64) float64 {
	return math.Sqrt(refDot(a, a))
}

func refOrthogonalize(v []float64, basis [][]float64) float64 {
	for _, e := range basis {
		c := refDot(v, e)
		for i := range v {
			v[i] -= c * e[i]
		}
	}
	return refNorm(v)
}

func refNormalize(v []float64) bool {
	n := refNorm(v)
	if n < 1e-12 {
		return false
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return true
}

// ensembleOps is every operator the oracle covers: the six of the Borg
// ensemble as Borg composes them, plus the bare recombinations and PM.
func ensembleOps() []Operator {
	return append(BorgEnsemble(), NewSBX(), NewDE(), NewPCX(), NewSPX(), NewUNDX(), NewPM(),
		SBX{Rate: 0.5, DistributionIndex: 15}, PM{Probability: 1, DistributionIndex: 20})
}

// parentShapes are the degenerate parent sets the oracle must survive,
// beside plain random draws.
var parentShapes = []string{"random", "identical", "centroid", "bound", "flat-var"}

// shapeCase builds one oracle input: arity parents of n variables in
// bounds drawn from gen, bent into the named degenerate shape.
func shapeCase(gen *rng.Source, shape string, arity, n int) (parents [][]float64, lo, hi []float64) {
	lo = make([]float64, n)
	hi = make([]float64, n)
	for i := range lo {
		lo[i] = gen.Range(-2, 0)
		hi[i] = lo[i] + gen.Range(0.5, 3)
	}
	if shape == "flat-var" {
		j := gen.Intn(n)
		hi[j] = lo[j]
	}
	parents = make([][]float64, arity)
	for k := range parents {
		p := make([]float64, n)
		for i := range p {
			p[i] = gen.Range(lo[i], hi[i])
		}
		parents[k] = p
	}
	switch shape {
	case "identical":
		for k := 1; k < arity; k++ {
			copy(parents[k], parents[0])
		}
	case "centroid":
		// The index parent is the mean of the others, so the parents'
		// centroid is (up to rounding) the index parent itself.
		if arity > 1 {
			copy(parents[0], refCentroid(parents[1:]))
		}
	case "bound":
		for k, p := range parents {
			for i := range p {
				switch (k + i) % 3 {
				case 0:
					p[i] = lo[i]
				case 1:
					p[i] = hi[i]
				}
			}
		}
	}
	return parents, lo, hi
}

// matchOne runs op's Child and the reference Apply on the same input
// from equal streams and reports the first difference: the child bit
// for bit against refApply(...)[0], then the streams' state afterwards.
func matchOne(op Operator, parents [][]float64, lo, hi []float64, seed uint64, s *Scratch) error {
	rRef, rNew := rng.New(seed), rng.New(seed)
	want := refApply(op, parents, lo, hi, rRef)
	if len(want) != op.Offspring() {
		return fmt.Errorf("Offspring() = %d, reference Apply returned %d", op.Offspring(), len(want))
	}
	child := make([]float64, len(lo))
	for i := range child {
		child[i] = math.NaN() // Child must write every element
	}
	op.Child(child, parents, lo, hi, rNew, s)
	for i := range child {
		if math.Float64bits(child[i]) != math.Float64bits(want[0][i]) {
			return fmt.Errorf("child[%d] = %v, reference %v", i, child[i], want[0][i])
		}
	}
	if *rNew != *rRef || rNew.Uint64() != rRef.Uint64() {
		return fmt.Errorf("rng state after Child differs from the reference's")
	}

	// Apply, rebuilt on the same arithmetic, still returns every child.
	rApply := rng.New(seed)
	got := op.Apply(parents, lo, hi, rApply)
	rRef = rng.New(seed)
	want = refApply(op, parents, lo, hi, rRef)
	for k := range want {
		for i := range want[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				return fmt.Errorf("Apply child %d [%d] = %v, reference %v", k, i, got[k][i], want[k][i])
			}
		}
	}
	if *rApply != *rRef {
		return fmt.Errorf("rng state after Apply differs from the reference's")
	}
	return nil
}

// TestOneChildMatchesReference: for every operator, size and degenerate
// parent shape, Child's one child equals the reference Apply's first
// bit for bit and leaves the stream where the reference leaves it. One
// Scratch serves every case, so reuse across operators and sizes is
// covered too.
func TestOneChildMatchesReference(t *testing.T) {
	var s Scratch
	for _, op := range ensembleOps() {
		for _, n := range []int{1, 2, 5, 14, 30} {
			for _, shape := range parentShapes {
				for seed := uint64(1); seed <= 3; seed++ {
					gen := rng.New(seed*7919 + uint64(n))
					parents, lo, hi := shapeCase(gen, shape, op.Arity(), n)
					if err := matchOne(op, parents, lo, hi, seed, &s); err != nil {
						t.Fatalf("%s n=%d %s seed=%d: %v", op.Name(), n, shape, seed, err)
					}
				}
			}
		}
	}
}

// FuzzOperatorsMatchReference drives the same oracle from fuzzed
// operator, size, shape and seeds.
func FuzzOperatorsMatchReference(f *testing.F) {
	f.Add(uint8(0), uint8(14), uint8(0), uint64(1), uint64(2))
	f.Add(uint8(2), uint8(5), uint8(2), uint64(3), uint64(4))
	f.Add(uint8(4), uint8(30), uint8(1), uint64(5), uint64(6))
	f.Add(uint8(3), uint8(1), uint8(4), uint64(7), uint64(8))
	ops := ensembleOps()
	var s Scratch
	f.Fuzz(func(t *testing.T, opIdx, size, shape uint8, genSeed, seed uint64) {
		op := ops[int(opIdx)%len(ops)]
		n := 1 + int(size)%40
		sh := parentShapes[int(shape)%len(parentShapes)]
		parents, lo, hi := shapeCase(rng.New(genSeed), sh, op.Arity(), n)
		if err := matchOne(op, parents, lo, hi, seed, &s); err != nil {
			t.Fatalf("%s n=%d %s: %v", op.Name(), n, sh, err)
		}
	})
}

// TestChildAllocs: with a warm Scratch, Child allocates nothing.
func TestChildAllocs(t *testing.T) {
	const n = 14
	lo, hi := bounds(n)
	r := rng.New(17)
	var s Scratch
	child := make([]float64, n)
	for _, op := range BorgEnsemble() {
		parents := randomParents(r, op.Arity(), n, lo, hi)
		op.Child(child, parents, lo, hi, r, &s)
		if a := testing.AllocsPerRun(50, func() { op.Child(child, parents, lo, hi, r, &s) }); a != 0 {
			t.Errorf("%s: %v allocations per Child, want 0", op.Name(), a)
		}
	}
}
