package parallel

import (
	"math"
	"testing"

	"borgmoea/internal/core"
	"borgmoea/internal/model"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// testConfig returns a small async configuration on 5-objective DTLZ2.
func testConfig(p int, n uint64) Config {
	return Config{
		Problem:     problems.NewDTLZ2(5),
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(5, 0.1)},
		Processors:  p,
		Evaluations: n,
		TF:          stats.NewConstant(0.001),
		TA:          stats.NewConstant(0.000023),
		TC:          stats.NewConstant(0.000006),
		Seed:        1,
	}
}

func TestAsyncValidation(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.Problem = nil },
		func(c *Config) { c.Processors = 1 },
		func(c *Config) { c.Evaluations = 0 },
		func(c *Config) { c.TF = nil },
		func(c *Config) { c.StragglerFraction = 2 },
	}
	for i, mutate := range bad {
		cfg := testConfig(4, 100)
		mutate(&cfg)
		if _, err := RunAsync(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAsyncCompletesBudget(t *testing.T) {
	cfg := testConfig(8, 2000)
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 2000 {
		t.Fatalf("completed %d evaluations, want 2000", res.Evaluations)
	}
	if res.Final.Evaluations() != 2000 {
		t.Fatalf("Borg accepted %d evaluations", res.Final.Evaluations())
	}
	if res.Final.Archive().Size() == 0 {
		t.Fatal("archive empty after async run")
	}
	if res.ElapsedTime <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

// TestAsyncMatchesAnalyticalModel: with constant timing distributions
// and P well below saturation, the virtual-cluster run must land on
// Eq. 2 almost exactly — the validation the paper performs in
// Table II's low-P cells.
func TestAsyncMatchesAnalyticalModel(t *testing.T) {
	tm := model.Times{TF: 0.01, TA: 0.000023, TC: 0.000006}
	cfg := testConfig(16, 10000)
	cfg.TF = stats.NewConstant(tm.TF)
	cfg.TA = stats.NewConstant(tm.TA)
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := model.AsyncTime(10000, 16, tm)
	if e := model.RelativeError(want, res.ElapsedTime); e > 0.02 {
		t.Fatalf("async T_P = %v, analytical %v (err %.1f%%)", res.ElapsedTime, want, 100*e)
	}
	// Efficiency per Table II's shape: ≈ 0.93 at P=16, TF=0.01.
	if eff := res.Efficiency(); math.Abs(eff-0.93) > 0.03 {
		t.Fatalf("efficiency = %v, want ≈ 0.93", eff)
	}
}

// TestAsyncSaturationShape: at TF=0.001 the master saturates well
// below P=64 (P_UB ≈ 28); elapsed time must be far above the
// analytical prediction and near the master service floor.
func TestAsyncSaturationShape(t *testing.T) {
	tm := model.Times{TF: 0.001, TA: 0.000023, TC: 0.000006}
	cfg := testConfig(64, 10000)
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analytic := model.AsyncTime(10000, 64, tm)
	if res.ElapsedTime < 1.5*analytic {
		t.Fatalf("expected saturation: T_P %v vs analytic %v", res.ElapsedTime, analytic)
	}
	if res.MasterUtilization < 0.9 {
		t.Fatalf("master utilization %v, want near 1 at saturation", res.MasterUtilization)
	}
}

func TestAsyncMeasuredTA(t *testing.T) {
	cfg := testConfig(8, 1000)
	cfg.TA = nil // measure the real Accept+Suggest cost
	cfg.CaptureTimings = true
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTA <= 0 {
		t.Fatal("measured TA not positive")
	}
	if len(res.TASamples) == 0 || len(res.TFSamples) == 0 {
		t.Fatal("CaptureTimings recorded no samples")
	}
	for _, ta := range res.TASamples {
		if ta < 0 {
			t.Fatal("negative TA sample")
		}
	}
}

func TestAsyncCheckpoints(t *testing.T) {
	cfg := testConfig(8, 1000)
	var times []float64
	var evals []uint64
	cfg.CheckpointEvery = 100
	cfg.OnCheckpoint = func(vt float64, b *core.Borg) {
		times = append(times, vt)
		evals = append(evals, b.Evaluations())
	}
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	if len(times) != 10 {
		t.Fatalf("got %d checkpoints, want 10", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatal("checkpoint times not increasing")
		}
		if evals[i] != evals[i-1]+100 {
			t.Fatalf("checkpoint evaluations not spaced by 100: %v", evals)
		}
	}
}

func TestAsyncDeterministicWithSampledTA(t *testing.T) {
	run := func() float64 {
		res, err := RunAsync(testConfig(8, 1500))
		if err != nil {
			t.Fatal(err)
		}
		return res.ElapsedTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("async run not deterministic: %v vs %v", a, b)
	}
}

func TestAsyncSearchQualityMatchesSerialBallpark(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence test skipped in -short mode")
	}
	// The async algorithm is a different search trajectory but must
	// still converge on DTLZ2.
	cfg := testConfig(16, 20000)
	cfg.Algorithm.Epsilons = core.UniformEpsilons(5, 0.1)
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist := 0.0
	objs := res.Final.Archive().Objectives()
	for _, f := range objs {
		n := 0.0
		for _, x := range f {
			n += x * x
		}
		dist += math.Abs(math.Sqrt(n) - 1)
	}
	dist /= float64(len(objs))
	if dist > 0.08 {
		t.Fatalf("async archive mean front distance = %v, want < 0.08", dist)
	}
}

func TestSyncCompletesBudget(t *testing.T) {
	cfg := testConfig(8, 2000)
	res, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations < 2000 {
		t.Fatalf("completed %d evaluations, want >= 2000", res.Evaluations)
	}
	if res.Generations == 0 {
		t.Fatal("no generations recorded")
	}
	wantGens := uint64(math.Ceil(2000.0 / 8))
	if res.Generations != wantGens {
		t.Fatalf("generations = %d, want %d (N/P)", res.Generations, wantGens)
	}
}

// TestSyncMatchesCantuPazModel validates the sync driver against
// Eq. 6 under constant distributions.
func TestSyncMatchesCantuPazModel(t *testing.T) {
	tm := model.Times{TF: 0.01, TA: 0.000023, TC: 0.000006}
	cfg := testConfig(16, 8000)
	cfg.TF = stats.NewConstant(tm.TF)
	res, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := model.SyncTime(8000, 16, tm)
	if e := model.RelativeError(want, res.ElapsedTime); e > 0.05 {
		t.Fatalf("sync T_P = %v, Eq. 6 predicts %v (err %.1f%%)", res.ElapsedTime, want, 100*e)
	}
}

// TestStragglersHurtSyncMoreThanAsync quantifies the paper's §VI-B
// closing claim: highly variable TF degrades the synchronous model
// while the asynchronous model is barely affected.
func TestStragglersHurtSyncMoreThanAsync(t *testing.T) {
	mk := func(straggler bool) Config {
		cfg := testConfig(16, 4000)
		cfg.TF = stats.NewConstant(0.005)
		if straggler {
			cfg.StragglerFraction = 0.25
			cfg.StragglerFactor = 4
		}
		return cfg
	}
	asyncBase, err := RunAsync(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	asyncSlow, err := RunAsync(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	syncBase, err := RunSync(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	syncSlow, err := RunSync(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	asyncPenalty := asyncSlow.ElapsedTime / asyncBase.ElapsedTime
	syncPenalty := syncSlow.ElapsedTime / syncBase.ElapsedTime
	if syncPenalty <= asyncPenalty {
		t.Fatalf("stragglers should hurt sync more: async ×%.2f vs sync ×%.2f",
			asyncPenalty, syncPenalty)
	}
	// Sync pays ~the straggler factor every generation (barrier on
	// the slowest worker); async re-balances work.
	if syncPenalty < 2 {
		t.Fatalf("sync straggler penalty ×%.2f suspiciously small", syncPenalty)
	}
	if syncSlow.ElapsedTime <= asyncSlow.ElapsedTime {
		t.Fatalf("with stragglers sync (%v) finished no later than async (%v)",
			syncSlow.ElapsedTime, asyncSlow.ElapsedTime)
	}
}

func TestResultDerivedQuantities(t *testing.T) {
	r := &Result{
		ElapsedTime: 10,
		Evaluations: 1000,
		Processors:  5,
		MeanTF:      0.04,
		MeanTA:      0.01,
	}
	if ts := r.SerialTime(); math.Abs(ts-50) > 1e-12 {
		t.Errorf("SerialTime = %v, want 50", ts)
	}
	if s := r.Speedup(); math.Abs(s-5) > 1e-12 {
		t.Errorf("Speedup = %v, want 5", s)
	}
	if e := r.Efficiency(); math.Abs(e-1) > 1e-12 {
		t.Errorf("Efficiency = %v, want 1", e)
	}
	zero := &Result{}
	if zero.Speedup() != 0 || zero.Efficiency() != 0 {
		t.Error("zero-result derived quantities should be 0")
	}
}

// virtual1024x40kConfig is one Table II cell as borgbench's
// des-table2-p1024 runs it: P = 1024, Gamma T_F, sampled T_A, seed i.
func virtual1024x40kConfig(i int) Config {
	cfg := testConfig(1024, 40000)
	cfg.Algorithm.Epsilons = core.UniformEpsilons(5, 0.15)
	cfg.TF = stats.GammaFromMeanCV(0.01, 0.1)
	cfg.TA = stats.NewConstant(29e-6)
	cfg.Seed = uint64(i)
	return cfg
}

// TestRestartBacklogBounded: with 1 024 evaluations in flight, restarts
// fire faster than Suggest drains their injections. Each restart must
// replace the queue, not stack on it, so at the end of the DES cell's
// run at most one batch — never more than the population — is queued.
func TestRestartBacklogBounded(t *testing.T) {
	res, err := RunAsync(virtual1024x40kConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Final
	if b.Restarts() == 0 {
		t.Fatal("no restarts; the cell no longer exercises the queue")
	}
	if p, c := b.PendingInjections(), b.Population().Capacity(); p > c {
		t.Fatalf("%d injections queued after %d restarts, more than the population capacity %d",
			p, b.Restarts(), c)
	}
}

func virtual16x10kConfig(i int) Config {
	cfg := testConfig(16, 10000)
	cfg.Seed = uint64(i)
	return cfg
}

// benchAsync runs config(i) as the benchmark's iteration i. Its
// allocs/op divided by the run's evaluations is the simulator's
// allocations per simulated evaluation.
func benchAsync(b *testing.B, config func(i int) Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunAsync(config(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncVirtual1024x40k(b *testing.B) { benchAsync(b, virtual1024x40kConfig) }
func BenchmarkAsyncVirtual16x10k(b *testing.B)   { benchAsync(b, virtual16x10kConfig) }

// TestAsyncVirtualAllocsPerEval holds each BenchmarkAsync* run to its
// allocation budget: the first iteration's allocations per evaluation,
// config construction included, as measured with go1.24 on amd64 (a
// few more under -race); 10% above that fails. Offspring reuse the
// storage of solutions that left the population and archive, so what
// is left is O(P) set-up and growth of the live set. A count repeats
// for a seed but moves with the trajectory — virtual16x10kConfig(1)
// reads 0.862 against seed 0's 0.803 through different restarts — so
// each run keeps its benchmark's first seed.
func TestAsyncVirtualAllocsPerEval(t *testing.T) {
	for _, c := range []struct {
		name    string
		config  func(i int) Config
		perEval float64
	}{
		{"Virtual16x10k", virtual16x10kConfig, 0.803},
		{"Virtual1024x40k", virtual1024x40kConfig, 0.494},
		{"FaultFree", faultFreeConfig, 0.935},
		{"CrashRecover", crashRecoverConfig, 0.947},
		{"Instrumented", instrumentedConfig, 0.941},
		{"Advised", advisedConfig, 0.957},
		{"Traced", tracedConfig, 3.965},
		{"QualitySampled", qualitySampledConfig, 1.184},
	} {
		t.Run(c.name, func(t *testing.T) {
			var err error
			n := float64(c.config(0).Evaluations)
			perEval := testing.AllocsPerRun(1, func() { _, err = RunAsync(c.config(0)) }) / n
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.4f allocations per evaluation", perEval)
			if budget := 1.10 * c.perEval; perEval > budget {
				t.Fatalf("%.3f allocations per evaluation, budget %.3f", perEval, budget)
			}
		})
	}
}
