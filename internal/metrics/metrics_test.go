package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominanceProperties(t *testing.T) {
	r := rng.New(1)
	gen := func() []float64 {
		return []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	for i := 0; i < 2000; i++ {
		a, b, c := gen(), gen(), gen()
		// Irreflexive.
		if Dominates(a, a) {
			t.Fatal("Dominates is not irreflexive")
		}
		// Antisymmetric.
		if Dominates(a, b) && Dominates(b, a) {
			t.Fatal("Dominates is not antisymmetric")
		}
		// Transitive.
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatal("Dominates is not transitive")
		}
	}
}

func TestNondominatedFilter(t *testing.T) {
	set := [][]float64{
		{1, 5}, {2, 2}, {5, 1}, {3, 3}, {6, 6},
	}
	out := refNondominated(set)
	if len(out) != 3 {
		t.Fatalf("filter kept %d points, want 3: %v", len(out), out)
	}
	for _, p := range out {
		if p[0] == 3 || p[0] == 6 {
			t.Fatalf("dominated point survived: %v", p)
		}
	}
}

func TestNondominatedFilterDuplicates(t *testing.T) {
	set := [][]float64{{1, 2}, {1, 2}, {1, 2}}
	out := refNondominated(set)
	if len(out) != 1 {
		t.Fatalf("duplicates kept %d times, want 1", len(out))
	}
}

func TestNondominatedFilterMutualNondominance(t *testing.T) {
	// Property: no member of the output dominates another.
	r := rng.New(2)
	err := quick.Check(func(seed uint64) bool {
		rr := rng.New(seed)
		set := make([][]float64, 20)
		for i := range set {
			set[i] = []float64{rr.Float64(), rr.Float64(), rr.Float64()}
		}
		out := refNondominated(set)
		for i, p := range out {
			for j, q := range out {
				if i != j && Dominates(p, q) {
					return false
				}
			}
		}
		return len(out) > 0
	}, &quick.Config{MaxCount: 100, Rand: nil})
	_ = r
	if err != nil {
		t.Fatal(err)
	}
}

func TestHypervolumeSinglePoint(t *testing.T) {
	set := [][]float64{{0.25, 0.25}}
	ref := []float64{1, 1}
	if got := Hypervolume(set, ref); math.Abs(got-0.5625) > 1e-12 {
		t.Fatalf("HV = %v, want 0.75² = 0.5625", got)
	}
}

func TestHypervolumeTwoBoxes(t *testing.T) {
	// Classic 2D example: points (1,3) and (3,1), ref (4,4):
	// HV = 3·1 + 1·3 + ... draw it: total = 3*1 + (3-1)*... = union of
	// [1,4]×[3,4] and [3,4]×[1,4]: 3·1 + 1·3 − 1·1 = 5.
	set := [][]float64{{1, 3}, {3, 1}}
	ref := []float64{4, 4}
	if got := Hypervolume(set, ref); math.Abs(got-5) > 1e-12 {
		t.Fatalf("HV = %v, want 5", got)
	}
}

func TestHypervolumeDominatedPointIgnored(t *testing.T) {
	ref := []float64{1, 1}
	a := Hypervolume([][]float64{{0.2, 0.2}}, ref)
	b := Hypervolume([][]float64{{0.2, 0.2}, {0.5, 0.5}}, ref)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("dominated point changed HV: %v vs %v", a, b)
	}
}

func TestHypervolumePointsOutsideRefContributeNothing(t *testing.T) {
	ref := []float64{1, 1}
	if got := Hypervolume([][]float64{{2, 0.1}}, ref); got != 0 {
		t.Fatalf("point beyond reference contributed %v", got)
	}
	if got := Hypervolume(nil, ref); got != 0 {
		t.Fatalf("empty set HV = %v, want 0", got)
	}
}

func TestHypervolume3DKnown(t *testing.T) {
	// Single point at origin, ref (1,1,1): HV = 1.
	if got := Hypervolume([][]float64{{0, 0, 0}}, []float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("HV = %v, want 1", got)
	}
	// Two staircase points.
	set := [][]float64{{0, 0.5, 0.5}, {0.5, 0, 0}}
	// Volumes: box1 = 1·0.5·0.5 = 0.25; box2 = 0.5·1·1 = 0.5;
	// intersection = 0.5·0.5·0.5 = 0.125; union = 0.625.
	if got := Hypervolume(set, []float64{1, 1, 1}); math.Abs(got-0.625) > 1e-12 {
		t.Fatalf("HV = %v, want 0.625", got)
	}
}

func TestHypervolumeDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	Hypervolume([][]float64{{1, 2, 3}}, []float64{1, 1})
}

// TestHypervolumeMCAgreesWithExact cross-validates the two
// implementations on random 4-objective sets.
func TestHypervolumeMCAgreesWithExact(t *testing.T) {
	r := rng.New(3)
	ref := []float64{1, 1, 1, 1}
	for trial := 0; trial < 5; trial++ {
		set := make([][]float64, 30)
		for i := range set {
			set[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		}
		exact := Hypervolume(set, ref)
		mc := HypervolumeMC(set, ref, 200000, 42)
		if exact == 0 {
			continue
		}
		if math.Abs(mc-exact)/exact > 0.02 {
			t.Fatalf("MC HV %v deviates from exact %v by >2%%", mc, exact)
		}
	}
}

// TestHypervolumeSphereFrontApproachesIdeal: a dense sample of the
// 5-objective sphere front must have hypervolume close to (and below)
// the closed-form ideal.
func TestHypervolumeSphereFrontApproachesIdeal(t *testing.T) {
	ref := []float64{1.1, 1.1, 1.1, 1.1, 1.1}
	ideal := problems.IdealSphereHypervolume(5, 1.1)
	sparse := HypervolumeMC(problems.SphereFront(5, 100, 7), ref, 200000, 11)
	dense := HypervolumeMC(problems.SphereFront(5, 2000, 7), ref, 200000, 11)
	if dense > ideal+1e-9 {
		t.Fatalf("front HV %v exceeds ideal %v", dense, ideal)
	}
	// Finite samples of a 5-D front capture well under 100% of the
	// continuous ideal; density must monotonically close the gap.
	if dense < 0.80*ideal {
		t.Fatalf("2000-point front HV %v too far below ideal %v", dense, ideal)
	}
	if dense <= sparse {
		t.Fatalf("denser front did not increase HV: %v vs %v", dense, sparse)
	}
}

func TestHypervolumeMCReproducible(t *testing.T) {
	set := [][]float64{{0.3, 0.4}, {0.5, 0.2}}
	ref := []float64{1, 1}
	a := HypervolumeMC(set, ref, 10000, 5)
	b := HypervolumeMC(set, ref, 10000, 5)
	if a != b {
		t.Fatal("HypervolumeMC not reproducible under fixed seed")
	}
}

// TestHypervolumeMCNondominatedIdentical: skipping the dominance
// filter must not change the estimate at all — on any input, filtered
// or not, the dominated region and the RNG stream are the same. Random
// sets deliberately include dominated points.
func TestHypervolumeMCNondominatedIdentical(t *testing.T) {
	r := rng.New(9)
	ref := []float64{1, 1, 1}
	for trial := 0; trial < 10; trial++ {
		set := make([][]float64, 50)
		for i := range set {
			set[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		}
		a := HypervolumeMC(set, ref, 5000, uint64(trial))
		b := HypervolumeMCNondominated(set, ref, 5000, uint64(trial))
		if a != b {
			t.Fatalf("trial %d: filtered %v != unfiltered %v", trial, a, b)
		}
	}
}

func TestHypervolumeMCValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("samples=0 did not panic")
		}
	}()
	HypervolumeMC([][]float64{{0, 0}}, []float64{1, 1}, 0, 1)
}

func TestIndicatorsEmptySetsWellDefined(t *testing.T) {
	// The degenerate-front contract: empty inputs yield 0, never NaN
	// or a panic — a live quality sampler can hit a pre-first-accept
	// archive.
	for name, v := range map[string]float64{
		"hv empty":           Hypervolume(nil, []float64{1, 1}),
		"hv MC empty":        HypervolumeMC(nil, []float64{1, 1}, 10, 1),
		"hv all outside box": Hypervolume([][]float64{{2, 2}}, []float64{1, 1}),
	} {
		if v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	// A point with a non-finite coordinate is dropped, not propagated:
	// one diverged evaluation must not turn the indicator into NaN or
	// +Inf.
	ref := []float64{1.1, 1.1}
	poisoned := [][]float64{{math.NaN(), 0.5}, {0.5, 0.5}}
	clean := [][]float64{{0.5, 0.5}}
	for name, got := range map[string][2]float64{
		"hv NaN point":              {Hypervolume(poisoned, ref), Hypervolume(clean, ref)},
		"hv MC NaN point":           {HypervolumeMC(poisoned, ref, 1000, 1), HypervolumeMC(clean, ref, 1000, 1)},
		"hv MC nondominated NaN":    {HypervolumeMCNondominated(poisoned, ref, 1000, 1), HypervolumeMCNondominated(clean, ref, 1000, 1)},
		"hv -Inf point":             {Hypervolume([][]float64{{math.Inf(-1), 0.5}}, ref), 0},
		"hv MC -Inf point":          {HypervolumeMC([][]float64{{math.Inf(-1), 0.5}}, ref, 1000, 1), 0},
		"hv MC nondominated +Inf":   {HypervolumeMCNondominated([][]float64{{math.Inf(1), 0.5}}, ref, 1000, 1), 0},
		"hv all points non-finite":  {Hypervolume([][]float64{{math.NaN(), math.NaN()}, {0.5, math.Inf(-1)}}, ref), 0},
		"hv MC -Inf beside a point": {HypervolumeMC([][]float64{{math.Inf(-1), 0.5}, {0.5, 0.5}}, ref, 1000, 1), HypervolumeMC(clean, ref, 1000, 1)},
	} {
		if got[0] != got[1] {
			t.Errorf("%s = %v, want %v", name, got[0], got[1])
		}
	}
}

func TestIndicatorsDuplicatePoints(t *testing.T) {
	dup := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	ref := []float64{1, 1}
	if hv, want := Hypervolume(dup, ref), 0.25; math.Abs(hv-want) > 1e-12 {
		t.Errorf("duplicate-point HV = %v, want %v", hv, want)
	}
}

func TestRefPointHelpers(t *testing.T) {
	if s := RefScale("ZDT4"); s != 2.0 {
		t.Errorf("RefScale(ZDT4) = %v, want 2.0", s)
	}
	if s := RefScale("DTLZ2"); s != DefaultRefScale {
		t.Errorf("RefScale(DTLZ2) = %v, want %v", s, DefaultRefScale)
	}
	ref := RefPointFor("UF7", 3)
	if len(ref) != 3 {
		t.Fatalf("RefPointFor dim = %d, want 3", len(ref))
	}
	for _, v := range ref {
		if v != DefaultRefScale {
			t.Errorf("RefPointFor coord = %v, want %v", v, DefaultRefScale)
		}
	}
	// Scale 0 means the default.
	if got := RefPoint(2, 0)[0]; got != DefaultRefScale {
		t.Errorf("RefPoint(2, 0) coord = %v, want %v", got, DefaultRefScale)
	}
}

// TestHypervolumeMonotonicity: adding a nondominated point never
// decreases hypervolume.
func TestHypervolumeMonotonicity(t *testing.T) {
	r := rng.New(8)
	ref := []float64{1, 1, 1}
	set := [][]float64{}
	prev := 0.0
	for i := 0; i < 30; i++ {
		p := []float64{r.Float64(), r.Float64(), r.Float64()}
		set = append(set, p)
		hv := Hypervolume(set, ref)
		if hv < prev-1e-12 {
			t.Fatalf("HV decreased after adding a point: %v -> %v", prev, hv)
		}
		prev = hv
	}
}
