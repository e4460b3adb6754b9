package advisor_test

import (
	"math"
	"testing"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/model"
	"borgmoea/internal/obs"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// trueTimes is the constant timing configuration the acceptance tests
// inject, so the advisor's fit can be compared against the analytical
// model evaluated on the exact parameters.
var trueTimes = model.Times{TF: 0.001, TA: 0.000023, TC: 0.000006}

func desConfig(p int, n uint64) parallel.Config {
	return parallel.Config{
		Problem:     problems.NewDTLZ2(5),
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(5, 0.1)},
		Processors:  p,
		Evaluations: n,
		TF:          stats.NewConstant(trueTimes.TF),
		TA:          stats.NewConstant(trueTimes.TA),
		TC:          stats.NewConstant(trueTimes.TC),
		Seed:        1,
	}
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 || math.Abs(got-want)/math.Abs(want) > tol {
		t.Errorf("%s = %v, want %v within %.0f%%", name, got, want, 100*tol)
	}
}

// Satellite: an advisor fed the exact Times must reproduce the
// analytical model's predictions — the fit layer adds no error of its
// own on constant inputs.
func TestPredictionsMatchModelOnExactTimes(t *testing.T) {
	const p = 8
	a := advisor.New(advisor.Config{Processors: p})
	for i := 0; i < 200; i++ {
		a.ObserveTF(1+i%(p-1), trueTimes.TF)
		a.ObserveTA(trueTimes.TA)
		a.ObserveTC(trueTimes.TC)
	}
	r := a.Report()

	if r.Times.TF != trueTimes.TF || r.Times.TA != trueTimes.TA || r.Times.TC != trueTimes.TC {
		t.Fatalf("fitted times %+v, want exact %+v", r.Times, trueTimes)
	}
	within(t, "predicted speedup", r.PredictedSpeedup, model.AsyncSpeedup(p, trueTimes), 1e-9)
	within(t, "predicted efficiency", r.PredictedEfficiency, model.AsyncEfficiency(p, trueTimes), 1e-9)
	within(t, "P_UB", r.ProcessorUpperBound, model.ProcessorUpperBound(trueTimes), 1e-9)
	within(t, "P_LB", r.ProcessorLowerBound, model.ProcessorLowerBound(trueTimes), 1e-9)
	within(t, "saturation", r.Saturation, model.Saturation(p, trueTimes), 1e-9)
}

// Acceptance: a DES RunAsync with known injected times yields a live
// report whose predictions agree with the analytical model on the true
// parameters within 5% by mid-run.
func TestLiveReportMatchesModelMidRun(t *testing.T) {
	const (
		p = 8
		n = 5000
	)
	var snaps []advisor.Report
	adv := advisor.New(advisor.Config{
		SnapshotEvery: 0.05,
		OnSnapshot:    func(r advisor.Report) { snaps = append(snaps, r) },
	})
	cfg := desConfig(p, n)
	cfg.Advisor = adv
	if _, err := parallel.RunAsync(cfg); err != nil {
		t.Fatal(err)
	}

	var mid *advisor.Report
	for i := range snaps {
		if snaps[i].Completed >= n/2 {
			mid = &snaps[i]
			break
		}
	}
	if mid == nil {
		t.Fatalf("no mid-run snapshot among %d", len(snaps))
	}
	if mid.Processors != p || mid.Budget != n {
		t.Fatalf("snapshot config %d/%d, want %d/%d", mid.Processors, mid.Budget, p, n)
	}

	within(t, "predicted speedup", mid.PredictedSpeedup, model.AsyncSpeedup(p, trueTimes), 0.05)
	within(t, "predicted efficiency", mid.PredictedEfficiency, model.AsyncEfficiency(p, trueTimes), 0.05)
	within(t, "P_UB", mid.ProcessorUpperBound, model.ProcessorUpperBound(trueTimes), 0.05)
	within(t, "P_LB", mid.ProcessorLowerBound, model.ProcessorLowerBound(trueTimes), 0.05)

	// The DES run itself tracks the unsaturated model, so the observed
	// speedup should sit near the prediction and the drift stay quiet.
	within(t, "observed speedup", mid.ObservedSpeedup, mid.PredictedSpeedup, 0.10)
	if mid.DriftAlert {
		t.Errorf("drift alert on a model-conforming run (drift %v smoothed %v)",
			mid.DriftScore, mid.DriftSmoothed)
	}
	if mid.ETASeconds <= 0 {
		t.Errorf("mid-run ETA = %v, want positive", mid.ETASeconds)
	}
}

// Acceptance: a seeded straggler — one worker with 10× T_F — is
// flagged, and only it.
func TestStragglerIsFlagged(t *testing.T) {
	const p = 8
	adv := advisor.New(advisor.Config{SnapshotEvery: 0.05})
	cfg := desConfig(p, 3000)
	cfg.Advisor = adv
	cfg.StragglerFraction = 1.0 / float64(p-1) // exactly worker 1
	cfg.StragglerFactor = 10
	if _, err := parallel.RunAsync(cfg); err != nil {
		t.Fatal(err)
	}

	r := adv.Report()
	if len(r.Stragglers) != 1 || r.Stragglers[0] != 1 {
		t.Fatalf("stragglers = %v, want [1]", r.Stragglers)
	}
	if len(r.Workers) != p-1 {
		t.Fatalf("%d worker reports, want %d", len(r.Workers), p-1)
	}
	for _, w := range r.Workers {
		if w.Straggler != (w.Worker == 1) {
			t.Errorf("worker %d straggler=%v", w.Worker, w.Straggler)
		}
	}
	slow := r.Workers[0]
	if slow.Worker != 1 || slow.Ratio < 5 {
		t.Errorf("worker 1 decayed-T_F ratio %v, want ~10× the fleet median", slow.Ratio)
	}
}

// The advisor mirrors its headline figures into the metrics registry.
// internal/httpd's TestAdvisorHandler checks the report it serves over
// /debug/scaling.
func TestGauges(t *testing.T) {
	reg := obs.NewRegistry()
	adv := advisor.New(advisor.Config{SnapshotEvery: 0.05, Registry: reg})
	cfg := desConfig(4, 1000)
	cfg.Advisor = adv
	if _, err := parallel.RunAsync(cfg); err != nil {
		t.Fatal(err)
	}

	g := reg.Gauge(advisor.MetricPredictedSpeedup).Value()
	within(t, "gauge "+advisor.MetricPredictedSpeedup, g, model.AsyncSpeedup(4, trueTimes), 0.05)
}

// A nil advisor must be safe to drive: every observation method is a
// no-op, so drivers can call unconditionally.
func TestNilAdvisorIsSafe(t *testing.T) {
	var a *advisor.Advisor
	a.Configure(8, 100)
	a.ObserveTF(1, 0.01)
	a.ObserveTA(1e-5)
	a.ObserveTC(1e-6)
	a.ObserveQueueWait(1e-6)
	a.SetLive(3)
	a.ObserveAccept(1, 0.01)
}

// An advised run must leave the optimization trajectory untouched:
// observation only, no effect on determinism.
func TestAdvisedRunIsDeterministic(t *testing.T) {
	bare, err := parallel.RunAsync(desConfig(6, 2000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := desConfig(6, 2000)
	cfg.Advisor = advisor.New(advisor.Config{SnapshotEvery: 0.01})
	advised, err := parallel.RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.ElapsedTime != advised.ElapsedTime || bare.Evaluations != advised.Evaluations ||
		bare.Final.Archive().Size() != advised.Final.Archive().Size() {
		t.Fatalf("advised run diverged: elapsed %v vs %v, evals %d vs %d, archive %d vs %d",
			bare.ElapsedTime, advised.ElapsedTime, bare.Evaluations, advised.Evaluations,
			bare.Final.Archive().Size(), advised.Final.Archive().Size())
	}
}
