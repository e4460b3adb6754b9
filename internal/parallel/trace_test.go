package parallel

import (
	"bytes"
	"math"
	"testing"

	"borgmoea/internal/master"
	"borgmoea/internal/obs"
)

// traceForestJSON serializes a forest in its canonical byte-comparable
// form.
func traceForestJSON(t testing.TB, f obs.Forest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reconstructForest round-trips the BMEL log and trace sidecar through
// their on-disk serializations and rebuilds the forest offline — the
// exact path borgview trace takes.
func reconstructForest(t testing.TB, log *master.Log, col *obs.Collector) obs.Forest {
	t.Helper()
	var lb bytes.Buffer
	if _, err := log.WriteTo(&lb); err != nil {
		t.Fatal(err)
	}
	diskLog, err := master.ReadLog(&lb)
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if _, err := col.TraceLog().WriteTo(&tb); err != nil {
		t.Fatal(err)
	}
	sidecar, err := obs.ReadTraceLog(&tb)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := obs.TracesFromLog(diskLog, sidecar)
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

// TestAsyncTraceReconstruction runs the virtual-time driver with full
// tracing and pins the PR's replayability claim: the BMEL event log
// plus the trace sidecar reconstruct the live collector's forest
// byte-for-byte, and the per-term attribution reproduces the driver's
// configured model constants exactly (virtual time is noiseless).
func TestAsyncTraceReconstruction(t *testing.T) {
	const n = 3000
	cfg := testConfig(8, n)
	log := master.NewLog()
	col := obs.NewCollector(obs.CollectorConfig{RunID: cfg.Seed, Rate: 1})
	cfg.Protocol = log
	cfg.Trace = col

	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != n {
		t.Fatalf("completed %d evaluations, want %d", res.Evaluations, n)
	}

	live := col.Forest()
	att := live.Attribution()
	if att.Evals < n {
		t.Fatalf("attribution covers %d evals, want at least the budget %d", att.Evals, n)
	}
	// The DES samples every model term from constant distributions, so
	// the traced means must equal the configuration exactly.
	for _, tc := range []struct {
		name string
		term obs.TermStats
		want float64
	}{
		{"tf", att.TF, 0.001},
		{"ta", att.TA, 0.000023},
		{"tc.send", att.TCSend, 0.000006},
		{"tc.recv", att.TCRecv, 0.000006},
	} {
		if tc.term.N == 0 {
			t.Fatalf("%s never observed", tc.name)
		}
		if math.Abs(tc.term.Mean-tc.want) > 1e-12 {
			t.Fatalf("%s mean %v, want the configured constant %v", tc.name, tc.term.Mean, tc.want)
		}
	}
	if att.Wait.N == 0 {
		t.Fatal("queue wait never observed")
	}

	if got, want := traceForestJSON(t, reconstructForest(t, log, col)), traceForestJSON(t, live); !bytes.Equal(got, want) {
		t.Fatal("offline reconstruction differs from the live forest")
	}
}

// TestAsyncTraceSampling checks head-based sampling: a low rate emits
// a proportional subset of traces, emission is consistent between live
// and reconstructed forests, and attribution still covers every
// evaluation (sampling gates emission, not measurement).
func TestAsyncTraceSampling(t *testing.T) {
	const n = 2000
	cfg := testConfig(8, n)
	log := master.NewLog()
	col := obs.NewCollector(obs.CollectorConfig{RunID: cfg.Seed, Rate: 0.1})
	cfg.Protocol = log
	cfg.Trace = col
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}

	live := col.Forest()
	if len(live) == 0 || len(live) >= n/2 {
		t.Fatalf("rate 0.1 emitted %d of ~%d traces", len(live), n)
	}
	if att := live.Attribution(); att.Evals != len(live) {
		t.Fatalf("attribution saw %d evals for %d emitted roots", att.Evals, len(live))
	}
	if got, want := traceForestJSON(t, reconstructForest(t, log, col)), traceForestJSON(t, live); !bytes.Equal(got, want) {
		t.Fatal("sampled reconstruction differs from the live forest")
	}
}

// TestAsyncTraceDisabledUnchanged pins the zero-cost-off claim at the
// protocol level: a run with tracing disabled produces the identical
// canonical event sequence and final archive as one never configured
// for tracing (the Trace field changes measurement, never decisions).
func TestAsyncTraceDisabledUnchanged(t *testing.T) {
	const n = 1500
	plain := testConfig(8, n)
	plainLog := master.NewLog()
	plain.Protocol = plainLog
	plainRes, err := RunAsync(plain)
	if err != nil {
		t.Fatal(err)
	}

	traced := testConfig(8, n)
	tracedLog := master.NewLog()
	traced.Protocol = tracedLog
	traced.Trace = obs.NewCollector(obs.CollectorConfig{RunID: 42, Rate: 1})
	tracedRes, err := RunAsync(traced)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plainLog.CanonicalBytes(), tracedLog.CanonicalBytes()) {
		t.Fatal("tracing changed the canonical protocol sequence")
	}
	if plainRes.ElapsedTime != tracedRes.ElapsedTime {
		t.Fatalf("tracing changed virtual elapsed time: %v vs %v", plainRes.ElapsedTime, tracedRes.ElapsedTime)
	}
}

// tracedConfig layers full-rate distributed tracing over
// instrumentedConfig(i): BenchmarkAsyncTraced against
// BenchmarkAsyncInstrumented gives the price of sampling every
// evaluation. That tracing changes no decision of the run is
// TestAsyncTraceDisabledUnchanged's to check.
func tracedConfig(i int) Config {
	cfg := instrumentedConfig(i)
	cfg.Trace = obs.NewCollector(obs.CollectorConfig{RunID: cfg.Seed, Rate: 1})
	return cfg
}

func BenchmarkAsyncTraced(b *testing.B) { benchAsync(b, tracedConfig) }
