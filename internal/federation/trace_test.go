package federation_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// TestFederationTracing is the PR's acceptance run: a two-island
// federation over loopback TCP with sampling 1.0. It must (a) emit one
// trace per evaluation whose model-term children were measured on the
// real sockets, (b) produce per-term attribution means that agree with
// the advisor's independently fitted T_F/T_C/T_A estimates within 10%,
// and (c) link
// ring migrations across islands so the merged Chrome export draws
// emigrant→migrant flow arrows.
func TestFederationTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback federation run takes ~2s of wall time")
	}
	const (
		islands = 2
		perIsl  = 200
		every   = 50
	)
	problem := problems.NewDTLZ2(3)
	algCfg := core.Config{Epsilons: core.UniformEpsilons(3, 0.1)}
	logs, mlogs := newLogs(islands)
	tracers := make([]*obs.Collector, islands)
	for i := range tracers {
		tracers[i] = obs.NewCollector(obs.CollectorConfig{RunID: 42 ^ uint64(i), Rate: 1})
	}

	cfg := federation.Config{
		Problem:        problem,
		Algorithm:      algCfg,
		Seed:           42,
		Islands:        islands,
		Evaluations:    perIsl,
		MigrationEvery: every,
		Workers:        4,
		WorkerDelay:    stats.NewConstant(0.020),
		SimulateTA:     stats.NewConstant(0.005),
		Conn:           fastConn,
		Logs:           logs,
		MigrantLogs:    mlogs,
		Tracers:        tracers,
	}
	res, err := federation.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvaluations != islands*perIsl {
		t.Fatalf("completed %d evaluations, want %d", res.TotalEvaluations, islands*perIsl)
	}
	fr := res.Federation.Report()

	var forests []obs.Forest
	for i := 0; i < islands; i++ {
		live := tracers[i].Forest()
		forests = append(forests, live)
		att := live.Attribution()

		// (a) Every evaluation traced, with real measured terms.
		if att.Evals < perIsl {
			t.Fatalf("island %d: %d traced evals, want >= %d", i, att.Evals, perIsl)
		}
		if att.TF.N == 0 || att.TCSend.N == 0 || att.TA.N == 0 {
			t.Fatalf("island %d: missing model terms in attribution %+v", i, att)
		}
		// A batch in flight at shutdown may not land, so migrations
		// received can trail the emigration cadence by one.
		if att.Migrants < perIsl/every-1 || att.Migrants > perIsl/every {
			t.Fatalf("island %d: %d migrant spans, want %d or %d", i, att.Migrants, perIsl/every-1, perIsl/every)
		}

		// (b) The traced means and the advisor's fit measure the same
		// run through independent pipelines; they must agree.
		fitted := fr.Reports[i].Times
		within := func(name string, traced, fitted float64) {
			if fitted <= 0 {
				t.Fatalf("island %d: advisor fitted no %s", i, name)
			}
			if rel := math.Abs(traced-fitted) / fitted; rel > 0.10 {
				t.Errorf("island %d: traced %s mean %.6fs vs advisor fit %.6fs (%.1f%% apart, want <= 10%%)",
					i, name, traced, fitted, 100*rel)
			}
		}
		within("T_F", att.TF.Mean, fitted.TF)
		within("T_C", att.TCSend.Mean, fitted.TC)
		within("T_A", att.TA.Mean, fitted.TA)
	}

	// (c) The merged Chrome export validates, and every migrant that
	// landed finishes a flow started by some island's emigrant span.
	var buf bytes.Buffer
	if err := obs.WriteChromeForests(&buf, []string{"island-0", "island-1"}, forests); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("merged export failed Chrome validation: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			ID    string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	starts, finishes := map[string]int{}, map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Name != "migrate" {
			continue
		}
		switch e.Phase {
		case "s":
			starts[e.ID]++
		case "f":
			finishes[e.ID]++
		}
	}
	var migrants int
	for _, f := range forests {
		a := f.Attribution()
		migrants += a.Migrants
	}
	if len(starts) == 0 || len(finishes) == 0 {
		t.Fatalf("export has %d flow starts and %d finishes; want migration arrows on both sides", len(starts), len(finishes))
	}
	if got := len(finishes); got != migrants {
		t.Fatalf("export has %d distinct flow finishes for %d migrant spans", got, migrants)
	}
	for id, n := range finishes {
		if n != 1 || starts[id] != 1 {
			t.Errorf("migrant flow %s: %d finishes, %d starts; want exactly 1 of each (cross-island arrow broken)", id, n, starts[id])
		}
	}
}

// TestFederationTracerValidation pins the Tracers length check.
func TestFederationTracerValidation(t *testing.T) {
	cfg := federation.Config{
		Problem:     problems.NewDTLZ2(3),
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(3, 0.1)},
		Islands:     2,
		Evaluations: 10,
		Tracers:     []*obs.Collector{nil},
	}
	if _, err := federation.Run(cfg); err == nil {
		t.Fatal("Run accepted a Tracers slice shorter than Islands")
	}
}

// TestFederationStragglerForcedTracing wires an advisor-driven
// OnStraggler → ForceWorker loop the way federation.Run does and
// checks the contract end to end at sampling rate 0: only the flagged
// worker's traces are emitted.
func TestFederationStragglerForcedTracing(t *testing.T) {
	col := obs.NewCollector(obs.CollectorConfig{RunID: 7, Rate: 0})
	adv := advisor.New(advisor.Config{OnStraggler: col.ForceWorker})
	adv.SetLive(4)

	// Worker 3 is 10x slower than the fleet; everyone else is uniform.
	var item uint64
	for round := 0; round < 40; round++ {
		for w := 1; w <= 4; w++ {
			item++
			col.TraceGrant(w, item, float64(item))
			tf := 0.01
			if w == 3 {
				tf = 0.1
			}
			adv.ObserveTF(w, tf)
			col.ObserveTF(item, tf)
			col.TraceResult(w, item, float64(item)+tf, true)
			adv.ObserveAccept(item, float64(item)+tf)
		}
	}
	r := adv.Report()
	if len(r.Stragglers) == 0 {
		t.Fatal("advisor flagged no straggler for a 10x-slow worker")
	}

	f := col.Forest()
	if len(f) == 0 {
		t.Fatal("straggler flag forced no traces at rate 0")
	}
	for _, s := range f {
		if s.Worker != 3 {
			t.Fatalf("rate-0 forest emitted worker %d's span; only the straggler's should force", s.Worker)
		}
	}
}
