package obs

import (
	"math"
	"testing"
)

func TestMeasureFrontDeterministic(t *testing.T) {
	front := [][]float64{{0.2, 0.8}, {0.5, 0.5}, {0.8, 0.2}}
	ref := []float64{1.1, 1.1}
	a := MeasureFront(front, ref, 64, 4096, 7)
	b := MeasureFront(front, ref, 64, 4096, 7)
	if a != b || a <= 0 {
		t.Fatalf("exact measurement not deterministic: %v vs %v", a, b)
	}
	// Force the Monte-Carlo path (maxExact 0 < len(front)) — still
	// deterministic for a fixed seed.
	mc1 := MeasureFront(front, ref, 0, 4096, 7)
	mc2 := MeasureFront(front, ref, 0, 4096, 7)
	if mc1 != mc2 || mc1 <= 0 {
		t.Fatalf("MC measurement not deterministic: %v vs %v", mc1, mc2)
	}
	if MeasureFront(nil, ref, 64, 4096, 7) != 0 {
		t.Error("empty front should measure 0")
	}
}

func TestFrontSpread(t *testing.T) {
	if s := FrontSpread(nil); s != 0 {
		t.Errorf("empty front spread %v, want 0", s)
	}
	if s := FrontSpread([][]float64{{1, 2}}); s != 0 {
		t.Errorf("singleton front spread %v, want 0", s)
	}
	got := FrontSpread([][]float64{{0, 0}, {3, 4}})
	if math.Abs(got-5) > 1e-12 {
		t.Errorf("spread %v, want 5 (3-4-5 diagonal)", got)
	}
}

func TestQualitySamplerUnattached(t *testing.T) {
	// A constructed-but-unattached sampler must be inert, and a nil
	// sampler safe everywhere — drivers call these paths unconditionally.
	s := NewQualitySampler(QualityConfig{Every: 10})
	if s.Due(100, 1.0) != true {
		t.Error("first Due should be true (baseline sample)")
	}
	_ = s.Sample(0, 1.0) // no algorithm attached: zero sample, no panic
	var nilS *QualitySampler
	if nilS.Due(1, 1) {
		t.Error("nil sampler reported due")
	}
	nilS.Sample(0, 0)
	if _, ok := nilS.Latest(); ok {
		t.Error("nil sampler has a latest sample")
	}
}
