package obs

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func sampleQualityLog() *QualityLog {
	return &QualityLog{
		Ref:       []float64{1.1, 1.1, 1.1},
		MaxExact:  64,
		MCSamples: 4096,
		Operators: []string{"SBX", "DE", "PCX", "SPX", "UNDX", "UM"},
		Samples: []QualitySample{
			{Seq: 0, At: 0.5, Evaluations: 100, Hypervolume: 0.12, EpsProgress: 9,
				ArchiveSize: 9, PopulationSize: 100, Restarts: 0, TournamentSize: 2,
				FrontSpread: 0.4, OperatorProbs: []float64{0.2, 0.2, 0.15, 0.15, 0.15, 0.15}},
			{Seq: 1, At: 1.25, Evaluations: 200, Hypervolume: 0.31, EpsProgress: 22,
				ArchiveSize: 17, PopulationSize: 120, Restarts: 1, TournamentSize: 3,
				FrontSpread: 0.9, OperatorProbs: []float64{0.4, 0.1, 0.1, 0.1, 0.1, 0.2}},
		},
	}
}

func TestQualityLogRoundTrip(t *testing.T) {
	l := sampleQualityLog()
	var buf bytes.Buffer
	n, err := l.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadQualityLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, l)
	}
}

func TestQualityLogTornTail(t *testing.T) {
	l := sampleQualityLog()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-write: every truncation length between
	// "second record gone entirely" and "one byte short" must yield the
	// one-sample prefix.
	rec := qualityRecSize(len(l.Operators))
	whole := buf.Bytes()
	for cut := 1; cut <= rec; cut += rec / 3 {
		got, err := ReadQualityLog(bytes.NewReader(whole[:len(whole)-cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got.Samples) != 1 {
			t.Fatalf("cut %d: got %d samples, want 1", cut, len(got.Samples))
		}
		if !reflect.DeepEqual(got.Samples[0], l.Samples[0]) {
			t.Fatalf("cut %d: surviving sample corrupted", cut)
		}
	}
}

func TestQualityLogRejectsGarbage(t *testing.T) {
	if _, err := ReadQualityLog(bytes.NewReader([]byte("BTRC\x01junkjunkjunkjunk"))); err == nil {
		t.Error("wrong magic accepted")
	}
	bad := append([]byte(qualityFormat.Magic), 99)
	bad = append(bad, make([]byte, 12)...)
	if _, err := ReadQualityLog(bytes.NewReader(bad)); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := ReadQualityLog(bytes.NewReader([]byte("BQ"))); err == nil {
		t.Error("truncated header accepted")
	}
}

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

// FuzzReadQualityLog is the CI fuzz-smoke target for the sidecar
// decoder: arbitrary bytes must never panic, and every accepted log
// must re-serialize and re-read to the same value (decode/encode
// fixpoint).
func FuzzReadQualityLog(f *testing.F) {
	var seed bytes.Buffer
	if _, err := sampleQualityLog().WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(qualityFormat.Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadQualityLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Byte-level fixpoint (NaN-safe, unlike DeepEqual on floats):
		// re-encoding the accepted log and decoding it again must yield
		// the same bytes.
		var b1 bytes.Buffer
		if _, err := l.WriteTo(&b1); err != nil {
			t.Fatalf("re-encode of accepted log failed: %v", err)
		}
		l2, err := ReadQualityLog(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-encoded log failed: %v", err)
		}
		var b2 bytes.Buffer
		if _, err := l2.WriteTo(&b2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("decode/encode fixpoint violated")
		}
	})
}
