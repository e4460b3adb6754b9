package parallel

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
)

// qualityBytes serializes a sampler's timeline for byte comparison.
func qualityBytes(t testing.TB, s *obs.QualitySampler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Log().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
// must reconstruct byte-identically offline from the BMEL log alone.
func TestQualityTimelineReplayDES(t *testing.T) {
	cfg := testConfig(8, 1500)
	cfg.Protocol = master.NewLog()
	cfg.Quality = obs.NewQualitySampler(testQualityConfig())
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	live := qualityBytes(t, cfg.Quality)
	if len(cfg.Quality.Log().Samples) == 0 {
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
	if !bytes.Equal(live, qualityBytes(t, repCfg.Quality)) {
		t.Fatal("replayed quality timeline differs from the live run's")
	}

	// And the sidecar itself round-trips.
	rt, err := obs.ReadQualityLog(bytes.NewReader(live))
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Samples) != len(cfg.Quality.Log().Samples) {
		t.Fatalf("sidecar round trip lost samples: %d != %d", len(rt.Samples), len(cfg.Quality.Log().Samples))
	}
}

// TestQualityTimelineReplayTCP: same property over real sockets, with
// a wall-clock cadence in the mix — wall-triggered samples are
// nondeterministic live, but the EvQuality events pin them in the
// recorded stream, so the replayed timeline is still byte-identical.
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
	live := qualityBytes(t, cfg.Quality)
	if len(cfg.Quality.Log().Samples) == 0 {
		t.Fatal("TCP run produced no quality samples")
	}

	repCfg := testConfig(2, n)
	repCfg.Quality = obs.NewQualitySampler(testQualityConfig())
	if _, err := ReplayAsync(repCfg, cfg.Protocol); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, qualityBytes(t, repCfg.Quality)) {
		t.Fatal("replayed TCP quality timeline differs from the live run's")
	}
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

// BenchmarkAsyncQualitySampled is the overhead benchmark the CI
// bench-quality job diffs against BenchmarkAsyncVirtual16x10k
// (sampler on vs off, 5% budget). The cadence is the cmd/borg
// default — one sample per 1000 accepted evaluations — and the DES
// driver is the worst case for it: with zero simulated T_F, every
// microsecond of sampler work lands directly on the run time.
func BenchmarkAsyncQualitySampled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(16, 10000)
		cfg.Seed = uint64(i + 1)
		cfg.Quality = obs.NewQualitySampler(obs.QualityConfig{
			Every: 1000,
			Ref:   metrics.RefPointFor("DTLZ2", 5),
		})
		if _, err := RunAsync(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
