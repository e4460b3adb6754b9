package operators

import (
	"math"
	"testing"
	"testing/quick"

	"borgmoea/internal/rng"
)

// bounds returns simple [0,1]^n bounds.
func bounds(n int) (lo, hi []float64) {
	lo = make([]float64, n)
	hi = make([]float64, n)
	for i := range hi {
		hi[i] = 1
	}
	return lo, hi
}

// randomParents generates arity random parent vectors in [lo, hi].
func randomParents(r *rng.Source, arity, n int, lo, hi []float64) [][]float64 {
	ps := make([][]float64, arity)
	for i := range ps {
		v := make([]float64, n)
		for j := range v {
			v[j] = r.Range(lo[j], hi[j])
		}
		ps[i] = v
	}
	return ps
}

// allOps returns one instance of every operator with defaults.
func allOps() []Operator {
	return []Operator{
		NewSBX(), NewDE(), NewPCX(), NewSPX(), NewUNDX(), NewUM(), NewPM(),
		NewWithPM(NewSBX()), NewWithPM(NewPCX()),
	}
}

// TestOffspringWithinBounds is the master property test: every
// operator must emit offspring inside the box for arbitrary inputs.
func TestOffspringWithinBounds(t *testing.T) {
	const n = 11
	lo, hi := bounds(n)
	r := rng.New(1)
	for _, op := range allOps() {
		for trial := 0; trial < 200; trial++ {
			parents := randomParents(r, op.Arity(), n, lo, hi)
			children := op.Apply(parents, lo, hi, r)
			if len(children) == 0 {
				t.Fatalf("%s produced no offspring", op.Name())
			}
			for _, c := range children {
				if len(c) != n {
					t.Fatalf("%s offspring has %d vars, want %d", op.Name(), len(c), n)
				}
				for j, x := range c {
					if x < lo[j] || x > hi[j] {
						t.Fatalf("%s offspring var %d = %v outside [%v,%v]",
							op.Name(), j, x, lo[j], hi[j])
					}
					if math.IsNaN(x) {
						t.Fatalf("%s produced NaN", op.Name())
					}
				}
			}
		}
	}
}

// TestParentsNotModified verifies Apply leaves its inputs untouched.
func TestParentsNotModified(t *testing.T) {
	const n = 7
	lo, hi := bounds(n)
	r := rng.New(2)
	for _, op := range allOps() {
		parents := randomParents(r, op.Arity(), n, lo, hi)
		backup := make([][]float64, len(parents))
		for i, p := range parents {
			backup[i] = append([]float64(nil), p...)
		}
		op.Apply(parents, lo, hi, r)
		for i := range parents {
			for j := range parents[i] {
				if parents[i][j] != backup[i][j] {
					t.Fatalf("%s modified parent %d", op.Name(), i)
				}
			}
		}
	}
}

func TestArityMismatchPanics(t *testing.T) {
	lo, hi := bounds(3)
	r := rng.New(3)
	for _, op := range allOps() {
		op := op
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted wrong parent count", op.Name())
				}
			}()
			op.Apply(randomParents(r, op.Arity()+1, 3, lo, hi), lo, hi, r)
		}()
	}
}

func TestVariableLengthMismatchPanics(t *testing.T) {
	lo, hi := bounds(3)
	r := rng.New(4)
	op := NewSBX()
	defer func() {
		if recover() == nil {
			t.Fatal("SBX accepted mismatched variable counts")
		}
	}()
	op.Apply([][]float64{{0.1, 0.2}, {0.3, 0.4, 0.5}}, lo, hi, r)
}

func TestSBXMeanPreservation(t *testing.T) {
	// SBX children are symmetric about the parent mean per variable
	// (before clamping); with interior parents the average offspring
	// midpoint equals the parent midpoint.
	lo, hi := bounds(1)
	r := rng.New(5)
	op := NewSBX()
	p1, p2 := 0.3, 0.6
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		ch := op.Apply([][]float64{{p1}, {p2}}, lo, hi, r)
		sum += ch[0][0] + ch[1][0]
	}
	mean := sum / (2 * trials)
	if math.Abs(mean-0.45) > 0.005 {
		t.Fatalf("SBX offspring mean = %v, want ~0.45", mean)
	}
}

func TestSBXIdenticalParents(t *testing.T) {
	lo, hi := bounds(4)
	r := rng.New(6)
	p := []float64{0.2, 0.4, 0.6, 0.8}
	ch := NewSBX().Apply([][]float64{p, p}, lo, hi, r)
	for _, c := range ch {
		for i := range c {
			if c[i] != p[i] {
				t.Fatalf("SBX of identical parents changed variables: %v", c)
			}
		}
	}
}

func TestDEFormula(t *testing.T) {
	// With CR = 1 every variable takes the mutant value
	// a + F(b − c).
	op := DE{CrossoverRate: 1.0, StepSize: 0.5}
	lo := []float64{-10, -10}
	hi := []float64{10, 10}
	r := rng.New(7)
	base := []float64{0, 0}
	a := []float64{1, 2}
	b := []float64{3, 5}
	c := []float64{1, 1}
	ch := op.Apply([][]float64{base, a, b, c}, lo, hi, r)[0]
	want := []float64{1 + 0.5*(3-1), 2 + 0.5*(5-1)}
	for i := range want {
		if math.Abs(ch[i]-want[i]) > 1e-12 {
			t.Fatalf("DE child = %v, want %v", ch, want)
		}
	}
}

func TestDEAlwaysPerturbsOneVariable(t *testing.T) {
	// Even with CR=0, index jrand always takes the mutant value.
	op := DE{CrossoverRate: 0, StepSize: 0.5}
	lo := []float64{-10, -10, -10}
	hi := []float64{10, 10, 10}
	r := rng.New(8)
	base := []float64{0, 0, 0}
	a := []float64{1, 1, 1}
	b := []float64{2, 2, 2}
	c := []float64{0, 0, 0}
	ch := op.Apply([][]float64{base, a, b, c}, lo, hi, r)[0]
	changed := 0
	for _, x := range ch {
		if x != 0 {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("DE with CR=0 changed %d variables, want exactly 1 (jrand)", changed)
	}
}

func TestUMMutationRate(t *testing.T) {
	// With probability 1, every variable is redrawn uniformly.
	op := UM{Probability: 1}
	const n = 2
	lo, hi := bounds(n)
	r := rng.New(9)
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		ch := op.Apply([][]float64{{0.9, 0.9}}, lo, hi, r)[0]
		sum += ch[0] + ch[1]
	}
	mean := sum / (2 * trials)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("UM(p=1) mean = %v, want ~0.5 (uniform redraw)", mean)
	}
}

func TestUMDefaultRateIsOneOverL(t *testing.T) {
	op := NewUM()
	const n = 20
	lo, hi := bounds(n)
	r := rng.New(10)
	parent := make([]float64, n)
	for i := range parent {
		parent[i] = 0.5
	}
	mutations := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		ch := op.Apply([][]float64{parent}, lo, hi, r)[0]
		for j := range ch {
			if ch[j] != parent[j] {
				mutations++
			}
		}
	}
	// Expect ~1 mutation per offspring.
	rate := float64(mutations) / trials
	if rate < 0.8 || rate > 1.2 {
		t.Fatalf("UM default mutated %.2f vars per child, want ~1", rate)
	}
}

func TestPMSmallPerturbations(t *testing.T) {
	// PM with a high distribution index produces small moves.
	op := PM{Probability: 1, DistributionIndex: 20}
	lo, hi := bounds(1)
	r := rng.New(11)
	const trials = 10000
	maxMove := 0.0
	sum := 0.0
	for i := 0; i < trials; i++ {
		ch := op.Apply([][]float64{{0.5}}, lo, hi, r)[0][0]
		move := math.Abs(ch - 0.5)
		sum += ch
		if move > maxMove {
			maxMove = move
		}
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("PM mean = %v, want ~0.5 (symmetric)", mean)
	}
	if maxMove > 0.5 {
		t.Fatalf("PM moved %v, out of bounds logic broken", maxMove)
	}
}

func TestPCXCentersOnFirstParent(t *testing.T) {
	// With tiny eta/zeta the offspring hugs the index parent.
	op := PCX{Parents: 5, Eta: 1e-6, Zeta: 1e-6}
	const n = 6
	lo, hi := bounds(n)
	r := rng.New(12)
	parents := randomParents(r, 5, n, lo, hi)
	ch := op.Apply(parents, lo, hi, r)[0]
	for i := range ch {
		if math.Abs(ch[i]-parents[0][i]) > 1e-3 {
			t.Fatalf("PCX with tiny spread strayed from index parent: %v vs %v", ch, parents[0])
		}
	}
}

func TestPCXDegenerateParents(t *testing.T) {
	// All parents identical: PCX must not NaN or panic.
	op := NewPCX()
	const n = 5
	lo, hi := bounds(n)
	r := rng.New(13)
	p := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	parents := make([][]float64, op.Arity())
	for i := range parents {
		parents[i] = p
	}
	ch := op.Apply(parents, lo, hi, r)[0]
	for _, x := range ch {
		if math.IsNaN(x) {
			t.Fatal("PCX produced NaN on degenerate parents")
		}
	}
}

func TestSPXCentroidPreservation(t *testing.T) {
	// SPX samples uniformly from the expanded simplex, whose mean is
	// the parent centroid.
	op := SPX{Parents: 4, Epsilon: 2}
	const n = 3
	lo := []float64{-10, -10, -10}
	hi := []float64{10, 10, 10}
	r := rng.New(14)
	parents := [][]float64{
		{0, 0, 0}, {1, 0, 1}, {0, 1, 2}, {1, 1, 1},
	}
	g := refCentroid(parents)
	sum := make([]float64, n)
	const trials = 30000
	for i := 0; i < trials; i++ {
		ch := op.Apply(parents, lo, hi, r)[0]
		for j := range sum {
			sum[j] += ch[j]
		}
	}
	for j := range sum {
		if mean := sum[j] / trials; math.Abs(mean-g[j]) > 0.02 {
			t.Fatalf("SPX offspring mean[%d] = %v, want centroid %v", j, mean, g[j])
		}
	}
}

func TestUNDXDegenerateParents(t *testing.T) {
	op := NewUNDX()
	const n = 5
	lo, hi := bounds(n)
	r := rng.New(15)
	p := []float64{0.3, 0.3, 0.3, 0.3, 0.3}
	parents := make([][]float64, op.Arity())
	for i := range parents {
		parents[i] = p
	}
	ch := op.Apply(parents, lo, hi, r)[0]
	for i, x := range ch {
		if math.IsNaN(x) {
			t.Fatal("UNDX produced NaN on degenerate parents")
		}
		if math.Abs(x-p[i]) > 1e-12 {
			t.Fatalf("UNDX of identical parents should return the centroid, got %v", ch)
		}
	}
}

func TestUNDXCentroidCentered(t *testing.T) {
	op := NewUNDX()
	const n = 4
	lo, hi := bounds(n)
	r := rng.New(16)
	parents := randomParents(r, op.Arity(), n, lo, hi)
	g := refCentroid(parents[:op.Arity()-1])
	sum := make([]float64, n)
	const trials = 20000
	for i := 0; i < trials; i++ {
		ch := op.Apply(parents, lo, hi, r)[0]
		for j := range sum {
			sum[j] += ch[j]
		}
	}
	for j := range sum {
		if mean := sum[j] / trials; math.Abs(mean-g[j]) > 0.03 {
			t.Fatalf("UNDX offspring mean[%d] = %v, want ~centroid %v", j, mean, g[j])
		}
	}
}

func TestWithPMNameAndArity(t *testing.T) {
	op := NewWithPM(NewSBX())
	if op.Name() != "sbx+pm" {
		t.Errorf("Name = %q, want sbx+pm", op.Name())
	}
	if op.Arity() != 2 {
		t.Errorf("Arity = %d, want 2", op.Arity())
	}
}

func TestBorgEnsemble(t *testing.T) {
	ops := BorgEnsemble()
	if len(ops) != 6 {
		t.Fatalf("BorgEnsemble has %d operators, want 6", len(ops))
	}
	wantNames := []string{"sbx+pm", "de+pm", "pcx+pm", "spx+pm", "undx+pm", "um"}
	for i, op := range ops {
		if op.Name() != wantNames[i] {
			t.Errorf("ensemble[%d] = %s, want %s", i, op.Name(), wantNames[i])
		}
	}
}

// TestGramSchmidtHelpers exercises the vector utilities directly.
func TestGramSchmidtHelpers(t *testing.T) {
	v := []float64{3, 4}
	if !normalize(v) {
		t.Fatal("normalize of nonzero vector failed")
	}
	if math.Abs(norm(v)-1) > 1e-12 {
		t.Fatalf("normalize result has norm %v", norm(v))
	}
	zero := []float64{0, 0}
	if normalize(zero) {
		t.Fatal("normalize of zero vector claimed success")
	}
	// Orthogonalization removes the e1 component.
	e1 := []float64{1, 0}
	w := []float64{2, 5}
	new(Scratch).orthogonalize(w, [][]float64{e1})
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[1]-5) > 1e-12 {
		t.Fatalf("orthogonalize result = %v, want [0 5]", w)
	}
}

// TestOperatorsAreDeterministicGivenSeed: identical seeds and inputs
// must reproduce identical offspring.
func TestOperatorsAreDeterministicGivenSeed(t *testing.T) {
	const n = 9
	lo, hi := bounds(n)
	for _, op := range allOps() {
		gen := rng.New(99)
		parents := randomParents(gen, op.Arity(), n, lo, hi)
		a := op.Apply(parents, lo, hi, rng.New(123))
		b := op.Apply(parents, lo, hi, rng.New(123))
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s nondeterministic under fixed seed", op.Name())
				}
			}
		}
	}
}

// TestQuickBoundsProperty fuzzes bounds geometry.
func TestQuickBoundsProperty(t *testing.T) {
	r := rng.New(100)
	err := quick.Check(func(seed uint64, shift int8) bool {
		n := 5
		lo := make([]float64, n)
		hi := make([]float64, n)
		for i := range lo {
			lo[i] = float64(shift)
			hi[i] = float64(shift) + 2
		}
		for _, op := range []Operator{NewSBX(), NewDE(), NewUM(), NewPM()} {
			parents := randomParents(r, op.Arity(), n, lo, hi)
			for _, c := range op.Apply(parents, lo, hi, rng.New(seed)) {
				for j, x := range c {
					if x < lo[j] || x > hi[j] {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkChild times Child, the call Borg makes per offspring, for
// each operator of the ensemble at the DTLZ2 M=5 size.
func BenchmarkChild(b *testing.B) {
	const n = 14
	for _, op := range BorgEnsemble() {
		b.Run(op.Name(), func(b *testing.B) {
			lo, hi := bounds(n)
			r := rng.New(1)
			parents := randomParents(r, op.Arity(), n, lo, hi)
			child := make([]float64, n)
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Child(child, parents, lo, hi, r, &s)
			}
		})
	}
}
