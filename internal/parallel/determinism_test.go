package parallel

import (
	"bytes"
	"reflect"
	"testing"

	"borgmoea/internal/core"
	"borgmoea/internal/fault"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
	"borgmoea/internal/stats"
)

// archiveBytes serializes a run's final archive for byte-level
// comparison across runs.
func archiveBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveArchive(&buf, res.Final.Archive()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type runner func(Config) (*Result, error)

func runArchive(t *testing.T, run runner, cfg Config) []byte {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return archiveBytes(t, res)
}

// TestDeterministicReplay: the same Config and seed must produce
// byte-identical final archives on repeated DES runs, for both
// virtual-time drivers — the regression guard for any nondeterminism
// creeping into the engine, cluster or drivers.
func TestDeterministicReplay(t *testing.T) {
	for name, run := range map[string]runner{"async": RunAsync, "sync": RunSync} {
		a := runArchive(t, run, testConfig(8, 3000))
		b := runArchive(t, run, testConfig(8, 3000))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: identical configs produced different archives", name)
		}
	}
}

// TestEmptyFaultPlanIsIdentity: attaching a nil or empty fault.Plan
// must leave a fault-free run bit-for-bit unchanged — the subsystem's
// central no-overhead invariant.
func TestEmptyFaultPlanIsIdentity(t *testing.T) {
	for name, run := range map[string]runner{"async": RunAsync, "sync": RunSync} {
		base := runArchive(t, run, testConfig(8, 3000))

		withEmpty := testConfig(8, 3000)
		withEmpty.Fault = &fault.Plan{}
		if got := runArchive(t, run, withEmpty); !bytes.Equal(base, got) {
			t.Errorf("%s: empty fault plan changed the run", name)
		}
	}
}

// TestFaultyReplayIsDeterministic: a faulty run replays exactly — the
// fault RNG stream is seeded independently, so the same plan yields
// the same failure schedule and the same final archive.
func TestFaultyReplayIsDeterministic(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(8, 3000)
		cfg.Fault = fault.FailedFractionPlan(0.05, 0.02, 21)
		return cfg
	}
	for name, run := range map[string]runner{"async": RunAsync, "sync": RunSync} {
		resA, err := run(mk())
		if err != nil {
			t.Fatal(err)
		}
		resB, err := run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(archiveBytes(t, resA), archiveBytes(t, resB)) {
			t.Errorf("%s: identical fault plans produced different archives", name)
		}
		if resA.WorkerCrashes != resB.WorkerCrashes || resA.Resubmissions != resB.Resubmissions ||
			resA.ElapsedTime != resB.ElapsedTime {
			t.Errorf("%s: fault replay diverged: %+v vs %+v", name, resA, resB)
		}
	}
}

// TestLeaseTimeoutAloneIsNeutral: enabling lease/barrier timeouts
// without any faults must not change the trajectory — no lease ever
// expires, so the bookkeeping is pure overhead with no effect.
func TestLeaseTimeoutAloneIsNeutral(t *testing.T) {
	base := runArchive(t, RunAsync, testConfig(8, 3000))
	timed := testConfig(8, 3000)
	timed.LeaseTimeout = 10 // far beyond any constant-T_F evaluation
	if got := runArchive(t, RunAsync, timed); !bytes.Equal(base, got) {
		t.Error("async: lease timeout without faults changed the run")
	}

	baseSync := runArchive(t, RunSync, testConfig(8, 3000))
	timedSync := testConfig(8, 3000)
	timedSync.BarrierTimeout = 10
	if got := runArchive(t, RunSync, timedSync); !bytes.Equal(baseSync, got) {
		t.Error("sync: barrier timeout without faults changed the run")
	}
}

// TestQualitySamplerIsNeutral: a quality sampler only reads the Borg,
// so attaching one leaves a counted-T_A run as it was — the same T_P,
// the same T_A samples, the same archive. Figures 3–4 read their
// hypervolume timelines off one, so their virtual times rest on this.
func TestQualitySamplerIsNeutral(t *testing.T) {
	for _, p := range []int{8, 256} {
		run := func(q *obs.QualitySampler) *Result {
			cfg := testConfig(p, 4000)
			cfg.TA = nil // counted work, as the figures charge
			cfg.TF = stats.GammaFromMeanCV(0.01, 0.1)
			cfg.CaptureTimings = true
			cfg.Quality = q
			res, err := RunAsync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base := run(nil)
		if len(base.TASamples) == 0 {
			t.Fatalf("P=%d: no T_A samples captured", p)
		}
		q := obs.NewQualitySampler(obs.QualityConfig{Every: 200, Ref: metrics.RefPoint(5, metrics.DefaultRefScale), MCSamples: 4000})
		sampled := run(q)
		if n := len(q.Log().Samples); n != 20 {
			t.Fatalf("P=%d: sampler took %d samples, want 20", p, n)
		}
		if sampled.ElapsedTime != base.ElapsedTime || !reflect.DeepEqual(sampled.TASamples, base.TASamples) {
			t.Errorf("P=%d: the sampler moved the run: T_P %v vs %v", p, sampled.ElapsedTime, base.ElapsedTime)
		}
		if !bytes.Equal(archiveBytes(t, sampled), archiveBytes(t, base)) {
			t.Errorf("P=%d: the sampler changed the archive", p)
		}
	}
}
