package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
)

// sameFloat is == that also holds between two NaNs (an overflowing
// reference box makes both estimators return one).
func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// mcTestSets are the input families of TestHypervolumeMCMatchesReference.
var mcTestSets = []struct {
	name string
	gen  func(m, n int, ref []float64, seed uint64) [][]float64
}{
	{"dtlz2-front", func(m, n int, _ []float64, seed uint64) [][]float64 {
		return problems.SphereFront(m, n, seed)
	}},
	{"cloud-with-dominated-and-duplicates", func(m, n int, _ []float64, seed uint64) [][]float64 {
		r := rng.New(seed)
		set := make([][]float64, n)
		for i := range set {
			if i > 0 && r.Intn(5) == 0 {
				set[i] = append([]float64(nil), set[r.Intn(i)]...)
				continue
			}
			set[i] = make([]float64, m)
			for j := range set[i] {
				set[i][j] = r.Float64()
			}
		}
		return set
	}},
	{"on-and-outside-the-box", func(m, n int, ref []float64, seed uint64) [][]float64 {
		r := rng.New(seed)
		set := problems.SphereFront(m, n, seed)
		for _, p := range set {
			switch j := r.Intn(m); r.Intn(4) {
			case 0:
				p[j] = ref[j] // on the box: contributes nothing
			case 1:
				p[j] = ref[j] + r.Float64()
			}
		}
		return set
	}},
	{"flush-against-the-reference", func(m, n int, ref []float64, seed uint64) [][]float64 {
		// Objective 0 of every point is the float just below ref[0], so
		// lo[0] == ref[0] − tiny and the box is one ulp wide there; a
		// few points sit one ulp lower still.
		r := rng.New(seed)
		set := problems.SphereFront(m, n, seed)
		for _, p := range set {
			p[0] = math.Nextafter(ref[0], math.Inf(-1))
			if r.Intn(3) == 0 {
				p[0] = math.Nextafter(p[0], math.Inf(-1))
			}
		}
		return set
	}},
}

// TestHypervolumeMCMatchesReference: the pruned kernel returns the
// linear scan's float, bit for bit, through both entry points.
func TestHypervolumeMCMatchesReference(t *testing.T) {
	sampleCounts := []int{700, 4000, 12000} // per seed: barely split … deep tree
	for _, m := range []int{1, 2, 3, 5, 8, 10} {
		ref := RefPoint(m, 0)
		for _, n := range []int{1, 2, 40, 250, 2000} {
			for _, fam := range mcTestSets {
				for seed := uint64(0); seed < 3; seed++ {
					set := fam.gen(m, n, ref, seed+1)
					samples := sampleCounts[seed]
					if testing.Short() {
						samples = min(samples, 4000)
					}
					for _, filter := range []bool{false, true} {
						if filter && n == 2000 && seed > 0 {
							continue // the O(n²) filter is most of the cost here
						}
						want := refHypervolumeMC(set, ref, samples, seed, filter)
						got := HypervolumeMCNondominated(set, ref, samples, seed)
						if filter {
							got = HypervolumeMC(set, ref, samples, seed)
						}
						if !sameFloat(got, want) {
							t.Errorf("m=%d n=%d %s seed=%d filter=%v: got %v, reference %v",
								m, n, fam.name, seed, filter, got, want)
						}
					}
				}
			}
		}
	}
}

// TestHypervolumeMCNonFiniteBox: a reference box too wide for a
// float64 (samples there are +Inf or NaN) still gets the linear
// scan's answer.
func TestHypervolumeMCNonFiniteBox(t *testing.T) {
	set := [][]float64{{-1e308, 0.2, 0.7}, {0.5, 0.6, 0.1}, {0.3, 0.9, 0.05}}
	for _, ref := range [][]float64{
		{1e308, 1, 1},
		{math.Inf(1), 1, 1},
		{1, math.Inf(1), 1},
		{1e308, 1e308, 1e308},
	} {
		for seed := uint64(0); seed < 4; seed++ {
			got := HypervolumeMCNondominated(set, ref, 500, seed)
			want := refHypervolumeMC(set, ref, 500, seed, false)
			if !sameFloat(got, want) {
				t.Errorf("ref %v seed %d: got %v, reference %v", ref, seed, got, want)
			}
		}
	}
}

// fuzzMCInput decodes bytes into an estimator call: m, samples, seed,
// the reference point, then points until the data runs out. Coordinates
// come from a small table of awkward values or a 16-bit grid, so
// duplicates, ties, dominated points, non-finite and out-of-box
// coordinates all turn up.
func fuzzMCInput(data []byte) (set [][]float64, ref []float64, samples int, seed uint64, ok bool) {
	if len(data) < 12 {
		return nil, nil, 0, 0, false
	}
	m := 1 + int(data[0])%10
	samples = 1 + int(binary.LittleEndian.Uint16(data[1:]))%4096
	seed = binary.LittleEndian.Uint64(data[3:])
	huge := data[11]&1 == 1
	data = data[12:]
	special := []float64{0, 1, 1.1, 0.5, -0.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Nextafter(1.1, 0), math.SmallestNonzeroFloat64, -1e308, 1e308, 2}
	coord := func(b0, b1 byte) float64 {
		if b0 < byte(len(special)) && b1 < 64 {
			return special[b0]
		}
		return float64(binary.LittleEndian.Uint16([]byte{b0, b1})) / 50000 // [0, 1.31]
	}
	ref = RefPoint(m, 0)
	if huge && len(data) >= 2*m {
		for j := range ref {
			if v := coord(data[2*j], data[2*j+1]); v == v {
				ref[j] = v
			}
		}
		data = data[2*m:]
	}
	for len(data) >= 2*m && len(set) < 300 {
		p := make([]float64, m)
		for j := range p {
			p[j] = coord(data[2*j], data[2*j+1])
		}
		set = append(set, p)
		data = data[2*m:]
	}
	return set, ref, samples, seed, true
}

// FuzzHypervolumeMC: on any input the pruned kernel neither panics nor
// departs from the linear scan, and the estimate lies in [0, vol].
func FuzzHypervolumeMC(f *testing.F) {
	f.Add([]byte("\x02\xff\x0f seedseed\x00" + "abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Add([]byte("\x04\x00\x08 seedseed\x01" + "\x0b\x00\x0b\x00\x02\x00\x02\x00\x02\x00" + "\x0a\x00\x03\x00\x03\x00\x04\x00\x00\x00" + "0123456789"))
	r := rng.New(7)
	for i := 0; i < 4; i++ {
		b := make([]byte, 12+600)
		for j := range b {
			b[j] = byte(r.Intn(256))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, ref, samples, seed, ok := fuzzMCInput(data)
		if !ok {
			return
		}
		for _, filter := range []bool{false, true} {
			want := refHypervolumeMC(set, ref, samples, seed, filter)
			got := HypervolumeMCNondominated(set, ref, samples, seed)
			if filter {
				got = HypervolumeMC(set, ref, samples, seed)
			}
			if !sameFloat(got, want) {
				t.Fatalf("filter=%v: got %v, reference %v (m=%d n=%d samples=%d seed=%d)",
					filter, got, want, len(ref), len(set), samples, seed)
			}
			if got < 0 {
				t.Fatalf("negative estimate %v", got)
			}
			if pts := inBox(set, ref); len(pts) > 0 && got == got {
				vol := 1.0
				for j := range ref {
					lo := math.Inf(1)
					for _, p := range pts {
						lo = math.Min(lo, p[j])
					}
					vol *= ref[j] - lo
				}
				// (vol·hit)/samples rounds twice, and overflows for a
				// box near the top of the float64 range.
				if got > vol*(1+1e-12) && !math.IsInf(vol*float64(samples), 1) {
					t.Fatalf("estimate %v above the box volume %v", got, vol)
				}
			}
		}
	})
}

// TestHypervolumeMCAllocsBounded: one call allocates a fixed handful
// of slabs — nothing per sample and nothing per node.
func TestHypervolumeMCAllocsBounded(t *testing.T) {
	front := problems.SphereFront(5, 2000, 1)
	ref := RefPoint(5, 0)
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(3, func() {
			HypervolumeMCNondominated(front, ref, samples, 1)
		})
	}
	few, many := allocs(1000), allocs(40000)
	t.Logf("allocs per call: %v at 1 000 samples, %v at 40 000", few, many)
	if many > 32 {
		t.Errorf("%v allocations per call at 40 000 samples, want <= 32", many)
	}
	// 40× the samples may double each of the two growing slabs (nodes,
	// candidate indices) a few more times, and that is all.
	if many-few > 16 {
		t.Errorf("allocations grew from %v to %v with the sample count", few, many)
	}
}

// TestHypervolumeMatchesReference: the arena WFG performs the
// recursive one's floating-point operations in the same order.
func TestHypervolumeMatchesReference(t *testing.T) {
	r := rng.New(11)
	for m := 2; m <= 6; m++ {
		ref := RefPoint(m, 0)
		for trial := 0; trial < 12; trial++ {
			n := 1 + r.Intn(64)
			if m == 6 {
				n = 1 + r.Intn(40) // keep the exponential case quick
			}
			var set [][]float64
			switch trial % 3 {
			case 0:
				set = problems.SphereFront(m, n, uint64(trial)+1)
			case 1:
				set = problems.LinearFront(m, n, uint64(trial)+1)
			default:
				set = mcTestSets[1].gen(m, n, ref, uint64(trial)+1)
			}
			if got, want := Hypervolume(set, ref), refHypervolume(set, ref); got != want {
				t.Errorf("m=%d n=%d trial %d: got %v, reference %v", m, n, trial, got, want)
			}
		}
	}
}

// TestNondominatedInPlaceMatchesFilter: the compacting filter keeps
// refNondominated's survivors in its order.
func TestNondominatedInPlaceMatchesFilter(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		set := mcTestSets[1].gen(3, 60, nil, seed)
		want := refNondominated(set)
		got := nondominatedInPlace(append([][]float64(nil), set...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: in place kept %d points, filter %d, or in another order", seed, len(got), len(want))
		}
	}
}

// TestHypervolumeAllocs reports what one exact call allocates against
// the recursive reference, and pins the arena's: a few slices per
// recursion depth, not one per point per term.
func TestHypervolumeAllocs(t *testing.T) {
	for _, c := range []struct{ m, n int }{{3, 39}, {5, 64}} {
		front := problems.SphereFront(c.m, c.n, 1)
		ref := RefPoint(c.m, 0)
		before := testing.AllocsPerRun(2, func() { refHypervolume(front, ref) })
		after := testing.AllocsPerRun(2, func() { Hypervolume(front, ref) })
		t.Logf("m=%d n=%d: %v allocations per call with the recursive reference, %v with the arena", c.m, c.n, before, after)
		if after > 64 || (c.n == 64 && after > before/100) {
			t.Errorf("m=%d n=%d: %v allocations per call, want <= 64 and <= 1%% of the reference's %v at n=64", c.m, c.n, after, before)
		}
	}
}

var benchSink float64

// BenchmarkHypervolumeMC times one 40 000-sample estimate per (m, n)
// cell on the analytic sphere front — the bench harness's reference
// computation is the m=5/n=2000 and m=3/n=2000 cells.
func BenchmarkHypervolumeMC(b *testing.B) {
	for _, m := range []int{1, 2, 3, 5, 8, 10} {
		for _, n := range []int{1, 2, 40, 250, 2000} {
			front := problems.SphereFront(m, n, 1)
			ref := RefPoint(m, 0)
			b.Run(fmt.Sprintf("m=%d/n=%d", m, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = HypervolumeMCNondominated(front, ref, 40000, 0x6876)
				}
			})
		}
	}
}

// BenchmarkHypervolumeExact times exact WFG at the archive sizes the
// quality sampler runs it on (<= obs.DefaultQualityMaxExact points).
func BenchmarkHypervolumeExact(b *testing.B) {
	for _, c := range []struct{ m, n int }{{3, 39}, {5, 64}, {5, 100}} {
		front := problems.SphereFront(c.m, c.n, 1)
		ref := RefPoint(c.m, 0)
		b.Run(fmt.Sprintf("m=%d/n=%d", c.m, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Hypervolume(front, ref)
			}
		})
	}
}
