package parallel

import (
	"bytes"
	"context"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
)

// sameTimeline fails unless got repeats want: the reference point,
// MaxExact, MCSamples, the operator names and every field of every
// sample, floats compared by their bits.
func sameTimeline(t testing.TB, want, got *obs.QualityLog) {
	t.Helper()
	if !sameFloats(want.Ref, got.Ref) || want.MaxExact != got.MaxExact || want.MCSamples != got.MCSamples ||
		!slices.Equal(want.Operators, got.Operators) || len(want.Samples) != len(got.Samples) {
		t.Fatalf("timelines differ: ref %v/%v, exact ≤%d/%d, %d/%d MC samples, operators %v/%v, %d/%d samples",
			want.Ref, got.Ref, want.MaxExact, got.MaxExact, want.MCSamples, got.MCSamples,
			want.Operators, got.Operators, len(want.Samples), len(got.Samples))
	}
	for i, w := range want.Samples {
		if g := got.Samples[i]; !sameSample(w, g) {
			t.Fatalf("sample %d differs:\nwant %+v\n got %+v", i, w, g)
		}
	}
}

// sameSample compares every field of two samples, floats by their bits.
func sameSample(w, g obs.QualitySample) bool {
	return w.Seq == g.Seq && w.Evaluations == g.Evaluations && w.EpsProgress == g.EpsProgress &&
		w.ArchiveSize == g.ArchiveSize && w.PopulationSize == g.PopulationSize &&
		w.Restarts == g.Restarts && w.TournamentSize == g.TournamentSize &&
		sameFloats([]float64{w.At, w.Hypervolume, w.FrontSpread}, []float64{g.At, g.Hypervolume, g.FrontSpread}) &&
		sameFloats(w.OperatorProbs, g.OperatorProbs)
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func testQualityConfig() obs.QualityConfig {
	return obs.QualityConfig{
		Every: 100,
		Ref:   metrics.RefPointFor("DTLZ2", 5),
	}
}

// TestQualityCadenceDeferApply: quality samples fire on the evaluation
// cadence and observe the archive with every accept so far folded in.
func TestQualityCadenceDeferApply(t *testing.T) {
	const n, every = 2000, 100
	cfg := testConfig(8, n)
	qc := testQualityConfig()
	qc.Every = every
	cfg.Quality = obs.NewQualitySampler(qc)
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	log := cfg.Quality.Log()
	if len(log.Samples) < 2 {
		t.Fatalf("got %d samples, want at least 2", len(log.Samples))
	}
	// Roughly one sample per `every` accepts: the baseline fires on the
	// first accept, then one per cadence window.
	if got, max := len(log.Samples), int(n/every)+1; got > max {
		t.Errorf("got %d samples for budget %d at cadence %d, max expected %d", got, n, every, max)
	}
	for i, s := range log.Samples {
		if s.Seq != uint64(i) {
			t.Fatalf("sample %d has seq %d", i, s.Seq)
		}
		if s.ArchiveSize == 0 {
			t.Errorf("sample %d observed an empty archive (stale snapshot?)", i)
		}
		if i == 0 {
			continue
		}
		prev := log.Samples[i-1]
		if d := s.Evaluations - prev.Evaluations; d < every {
			t.Errorf("samples %d→%d only %d evaluations apart, cadence %d", i-1, i, d, every)
		}
		if s.EpsProgress < prev.EpsProgress || s.At < prev.At {
			t.Errorf("sample %d not monotone vs predecessor", i)
		}
	}
	last := log.Samples[len(log.Samples)-1]
	if last.Hypervolume <= 0 {
		t.Error("final sample has non-positive hypervolume")
	}
	if len(last.OperatorProbs) != len(log.Operators) || len(log.Operators) == 0 {
		t.Errorf("operator probabilities (%d) misaligned with names (%d)", len(last.OperatorProbs), len(log.Operators))
	}
}

// TestQualityTimelineReplayDES: a recorded DES run's quality timeline
// must reconstruct bit for bit offline from the BMEL log alone.
func TestQualityTimelineReplayDES(t *testing.T) {
	cfg := testConfig(8, 1500)
	cfg.Protocol = master.NewLog()
	cfg.Quality = obs.NewQualitySampler(testQualityConfig())
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	live := cfg.Quality.Log()
	if len(live.Samples) == 0 {
		t.Fatal("live run produced no quality samples")
	}

	// Round-trip the event log through its serialization, then replay
	// with a fresh sampler.
	var buf bytes.Buffer
	if _, err := cfg.Protocol.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := master.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	repCfg := testConfig(8, 1500)
	repCfg.Quality = obs.NewQualitySampler(testQualityConfig())
	if _, err := ReplayAsync(repCfg, loaded); err != nil {
		t.Fatal(err)
	}
	sameTimeline(t, live, repCfg.Quality.Log())
}

// TestQualityTimelineReplayTCP: same property over real sockets, with
// a wall-clock cadence in the mix — wall-triggered samples are
// nondeterministic live, but the EvQuality events pin them in the
// recorded stream, so the replayed timeline is still bit-identical.
func TestQualityTimelineReplayTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP in -short mode")
	}
	const n = 600
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, l.Addr().String(), 1, nil)
	startWorker(ctx, l.Addr().String(), 2, nil)

	cfg := testConfig(2, n)
	cfg.TA = nil // the TCP master's T_A is its wall-clock time
	cfg.Protocol = master.NewLog()
	qc := testQualityConfig()
	qc.WallEvery = 0.05 // mix a wall-clock trigger in
	cfg.Quality = obs.NewQualitySampler(qc)
	if _, err := RunAsyncDistributed(cfg, DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	live := cfg.Quality.Log()
	if len(live.Samples) == 0 {
		t.Fatal("TCP run produced no quality samples")
	}

	repCfg := testConfig(2, n)
	repCfg.Quality = obs.NewQualitySampler(testQualityConfig())
	if _, err := ReplayAsync(repCfg, cfg.Protocol); err != nil {
		t.Fatal(err)
	}
	sameTimeline(t, live, repCfg.Quality.Log())
}

// TestQualityAdvisorWiring: OnSample → ObserveQuality wiring produces
// a search-health section in the scaling report from a real run.
func TestQualityAdvisorWiring(t *testing.T) {
	adv := advisor.New(advisor.Config{})
	cfg := testConfig(8, 1500)
	cfg.Advisor = adv
	qc := testQualityConfig()
	qc.OnSample = adv.ObserveQuality
	cfg.Quality = obs.NewQualitySampler(qc)
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	r := adv.Report()
	if r.Quality == nil {
		t.Fatal("scaling report has no quality section")
	}
	if got, want := r.Quality.Samples, uint64(len(cfg.Quality.Log().Samples)); got != want {
		t.Errorf("advisor saw %d samples, sampler logged %d", got, want)
	}
	if r.Quality.Hypervolume <= 0 {
		t.Error("advisor quality section has non-positive hypervolume")
	}
}

// qualitySampledConfig is virtual16x10kConfig(i) with the quality
// sampler on: BenchmarkAsyncQualitySampled against
// BenchmarkAsyncVirtual16x10k gives the sampler's overhead. The
// cadence is the cmd/borg default — one sample per 1000 accepted
// evaluations — and the DES driver is the worst case for it: the
// simulated T_F costs no wall time, so every microsecond of sampler
// work lands directly on the run time.
func qualitySampledConfig(i int) Config {
	cfg := virtual16x10kConfig(i)
	cfg.Quality = obs.NewQualitySampler(obs.QualityConfig{
		Every: 1000,
		Ref:   metrics.RefPointFor("DTLZ2", 5),
	})
	return cfg
}

func BenchmarkAsyncQualitySampled(b *testing.B) { benchAsync(b, qualitySampledConfig) }
