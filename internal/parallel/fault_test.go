package parallel

import (
	"testing"
	"time"

	"borgmoea/internal/fault"
	"borgmoea/internal/stats"
)

// faultConfig is testConfig with a Gamma T_F (the paper's controlled
// delay) so lease deadlines interleave nontrivially with evaluations.
func faultConfig(p int, n uint64) Config {
	cfg := testConfig(p, n)
	cfg.TF = stats.GammaFromMeanCV(0.001, 0.1)
	return cfg
}

// TestAsyncCrashRecoverCompletes is the headline acceptance test: at
// P=64 on DTLZ2 with 1% of workers failed at any instant
// (crash-recover, exponential MTBF/MTTR), the asynchronous driver
// completes the full evaluation budget, reports resubmissions, and
// loses only a bounded slice of efficiency versus the fault-free run.
func TestAsyncCrashRecoverCompletes(t *testing.T) {
	const p, n = 64, 20000

	clean, err := RunAsync(faultConfig(p, n))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Completed {
		t.Fatal("fault-free run incomplete")
	}

	cfg := faultConfig(p, n)
	cfg.Fault = fault.FailedFractionPlan(0.01, 0.05, 42)
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("faulty run incomplete: %d of %d evaluations", res.Evaluations, n)
	}
	if res.Evaluations != n {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, n)
	}
	if res.WorkerCrashes == 0 || res.WorkerRecoveries == 0 {
		t.Fatalf("no faults injected: %+v", res)
	}
	if res.Resubmissions == 0 {
		t.Fatal("crashes occurred but no work was resubmitted")
	}
	if res.LostEvaluations == 0 {
		t.Fatal("crashes occurred but no evaluations were counted lost")
	}
	// Efficiency bound: 1% failed workers plus lease-expiry latency
	// must not cost more than ~20% of fault-free efficiency at this
	// scale (the injected-failure bound with generous headroom for
	// resubmission latency).
	effClean, effFaulty := clean.Efficiency(), res.Efficiency()
	if effFaulty < 0.8*effClean {
		t.Fatalf("efficiency collapsed under 1%% failures: %.4f vs fault-free %.4f",
			effFaulty, effClean)
	}
	t.Logf("fault-free eff=%.4f faulty eff=%.4f crashes=%d recoveries=%d resub=%d lost=%d dup=%d msglost=%d",
		effClean, effFaulty, res.WorkerCrashes, res.WorkerRecoveries,
		res.Resubmissions, res.LostEvaluations, res.DuplicateResults, res.MessagesLost)
}

// TestSyncDeadWorkerCompletes: one permanently dead worker must not
// deadlock the generational barrier; the sync driver finishes the
// budget with the worker excluded after its first missed barrier.
func TestSyncDeadWorkerCompletes(t *testing.T) {
	cfg := faultConfig(8, 2000)
	cfg.Fault = &fault.Plan{
		Rules: []fault.Rule{{
			Ranks: []int{3},
			Model: fault.CrashStop{At: stats.NewConstant(0.05)},
		}},
		Seed: 9,
	}
	res, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("sync run deadlocked or aborted: %d of 2000 evaluations", res.Evaluations)
	}
	if res.WorkerCrashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.WorkerCrashes)
	}
	if res.LostEvaluations == 0 {
		t.Fatal("dead worker lost no evaluations")
	}
	if res.Resubmissions == 0 {
		t.Fatal("lost offspring were never re-scattered")
	}
}

// TestSyncCrashRecoverCompletes exercises the rejoin path: workers
// cycle in and out of the scatter set and the run still completes.
func TestSyncCrashRecoverCompletes(t *testing.T) {
	cfg := faultConfig(16, 4000)
	cfg.Fault = fault.FailedFractionPlan(0.05, 0.02, 3)
	res, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("sync crash-recover run incomplete: %d evaluations", res.Evaluations)
	}
	if res.WorkerRecoveries == 0 {
		t.Fatal("no recoveries observed")
	}
}

// TestAsyncAllWorkersCrashStop: with every worker permanently dead,
// the run cannot complete — it must end (SimTimeLimit) rather than
// hang, with Completed == false.
func TestAsyncAllWorkersCrashStop(t *testing.T) {
	cfg := faultConfig(4, 5000)
	cfg.Fault = &fault.Plan{
		Rules: []fault.Rule{{
			Fraction: 1,
			Model:    fault.CrashStop{At: stats.NewConstant(0.01)},
		}},
		Seed: 5,
	}
	cfg.SimTimeLimit = 2 // keep the aborted run short
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run claims completion with every worker dead")
	}
	if res.Evaluations >= cfg.Evaluations {
		t.Fatalf("evaluations = %d despite dead cluster", res.Evaluations)
	}
	if res.WorkerCrashes != 3 {
		t.Fatalf("crashes = %d, want 3", res.WorkerCrashes)
	}
}

// TestAsyncMessageLoss: lossy links lose results and requests; leases
// recover both directions.
func TestAsyncMessageLoss(t *testing.T) {
	cfg := faultConfig(8, 3000)
	cfg.Fault = &fault.Plan{MessageLoss: 0.01, Seed: 11}
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run with 1%% message loss incomplete: %d evaluations", res.Evaluations)
	}
	if res.MessagesLost == 0 {
		t.Fatal("no messages lost at p=0.01")
	}
	if res.Resubmissions == 0 {
		t.Fatal("lost messages but no resubmissions")
	}
}

// TestAsyncTransientHang: hung workers delay responses past the lease
// timeout; their late results must be deduplicated, never accepted
// twice (the chain invariant), and the run completes.
func TestAsyncTransientHang(t *testing.T) {
	cfg := faultConfig(8, 3000)
	cfg.Fault = &fault.Plan{
		Rules: []fault.Rule{{
			Fraction: 0.5,
			Model: fault.TransientHang{
				Every:    stats.NewExponential(1 / 0.05),
				Duration: stats.NewConstant(0.05), // ≫ default lease timeout (10·T_F = 0.01)
			},
		}},
		Seed: 13,
	}
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("hang run incomplete: %d evaluations", res.Evaluations)
	}
	if res.HangsInjected == 0 {
		t.Fatal("no hangs injected")
	}
	if res.DuplicateResults == 0 {
		t.Fatal("hung workers' late results never arrived as duplicates")
	}
	if res.Evaluations != cfg.Evaluations {
		t.Fatalf("accepted %d evaluations, want exactly %d (no double-accepts)",
			res.Evaluations, cfg.Evaluations)
	}
}

// TestMasterFaultRejected: the paper's model has no master failure;
// targeting rank 0 is a configuration error.
func TestMasterFaultRejected(t *testing.T) {
	cfg := faultConfig(4, 100)
	cfg.Fault = &fault.Plan{
		Rules: []fault.Rule{{
			Ranks: []int{0},
			Model: fault.CrashStop{At: stats.NewConstant(1)},
		}},
	}
	if _, err := RunAsync(cfg); err == nil {
		t.Fatal("rank-0 fault target accepted")
	}
	if _, err := RunSync(cfg); err == nil {
		t.Fatal("rank-0 fault target accepted by sync")
	}
}

// TestRealtimeRejectsFaults: the wall-clock (loopback TCP) driver has
// no simulated cluster to fail. The wall limit only bounds a driver
// that wrongly starts the run.
func TestRealtimeRejectsFaults(t *testing.T) {
	cfg := testConfig(4, 100)
	cfg.Fault = fault.FailedFractionPlan(0.1, 0.5, 1)
	if _, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: "127.0.0.1:0", WallLimit: time.Second}); err == nil {
		t.Fatal("wall-clock driver accepted a fault plan")
	}
}

// TestNegativeTimeoutsRejected covers the new Config validation.
func TestNegativeTimeoutsRejected(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.LeaseTimeout = -1 },
		func(c *Config) { c.BarrierTimeout = -1 },
		func(c *Config) { c.SimTimeLimit = -1 },
	} {
		cfg := testConfig(4, 100)
		mut(&cfg)
		if _, err := RunAsync(cfg); err == nil {
			t.Error("negative timeout accepted")
		}
	}
}

// faultFreeConfig is BenchmarkAsyncFaultFree's run i: the bare
// simulated driver, no plan and no timeout — the baseline the
// instrumented, advised and traced variants build on.
func faultFreeConfig(i int) Config {
	cfg := testConfig(16, 5000)
	cfg.Seed = uint64(i + 1)
	return cfg
}

// crashRecoverConfig is faultFreeConfig(i) under crash-recover faults
// that keep 1% of the workers down on average.
func crashRecoverConfig(i int) Config {
	cfg := faultFreeConfig(i)
	cfg.Fault = fault.FailedFractionPlan(0.01, 0.05, cfg.Seed)
	return cfg
}

func BenchmarkAsyncFaultFree(b *testing.B)    { benchAsync(b, faultFreeConfig) }
func BenchmarkAsyncCrashRecover(b *testing.B) { benchAsync(b, crashRecoverConfig) }
