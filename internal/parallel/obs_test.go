package parallel

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/fault"
	"borgmoea/internal/obs"
	"borgmoea/internal/wire"
)

// TestAsyncMetricsAndTrace attaches the full telemetry kit to a
// virtual-time run and checks that the registry and journal see the
// protocol: N accepted evaluations, T_A/T_F/T_C and queue-wait timing
// observations, and a journal that exports to a valid Chrome trace.
func TestAsyncMetricsAndTrace(t *testing.T) {
	const n = 2000
	cfg := testConfig(8, n)
	cfg.Metrics = obs.NewRegistry()
	cfg.Events = obs.NewRecorder(0)

	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}

	if got := cfg.Metrics.Counter(mEvaluations).Value(); got != n {
		t.Fatalf("%s = %d, want %d", mEvaluations, got, n)
	}
	for _, name := range []string{mTA, mTC, mQueueWait, mTF} {
		h := cfg.Metrics.Histogram(name, nil)
		if h.Count() == 0 {
			t.Errorf("histogram %s saw no observations", name)
		}
	}
	// The T_A histogram mean must agree with the run's own accounting.
	ta := cfg.Metrics.Histogram(mTA, nil)
	if diff := ta.Mean() - res.MeanTA; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("ta histogram mean %v != result MeanTA %v", ta.Mean(), res.MeanTA)
	}

	if cfg.Events.Len() == 0 {
		t.Fatal("journal recorded no events")
	}
	var buf bytes.Buffer
	if err := cfg.Events.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	// The DES stream must carry per-worker eval spans and master sends.
	kinds := map[string]bool{}
	actors := map[string]bool{}
	for _, ev := range cfg.Events.Events() {
		kinds[ev.Kind] = true
		actors[ev.Actor] = true
	}
	for _, k := range []string{"send", "recv", "eval.start", "eval.end", "algo.start", "algo.end"} {
		if !kinds[k] {
			t.Errorf("journal missing %q events", k)
		}
	}
	if !actors["master"] || !actors["worker1"] {
		t.Errorf("journal missing expected actors, got %v", actors)
	}
}

// TestAsyncMetricsMatchFaultAccounting runs the crash-recover scenario
// and checks the registry's fault counters agree with the Result's own
// accounting, and that a metrics-enabled run does not perturb the
// search trajectory.
func TestAsyncMetricsMatchFaultAccounting(t *testing.T) {
	mk := func(reg *obs.Registry) Config {
		cfg := faultConfig(16, 5000)
		cfg.Fault = fault.FailedFractionPlan(0.02, 0.05, 7)
		cfg.Metrics = reg
		return cfg
	}
	reg := obs.NewRegistry()
	res, err := RunAsync(mk(reg))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(mResub).Value(); got != res.Resubmissions {
		t.Errorf("%s = %d, want %d", mResub, got, res.Resubmissions)
	}
	if got := reg.Counter(mDuplicates).Value(); got != res.DuplicateResults {
		t.Errorf("%s = %d, want %d", mDuplicates, got, res.DuplicateResults)
	}
	if exp := reg.Counter(mLeaseExpiry).Value(); exp > res.LostEvaluations {
		t.Errorf("%s = %d exceeds lost evaluations %d", mLeaseExpiry, exp, res.LostEvaluations)
	}

	// Telemetry must be observation-only: same seed without a registry
	// must reproduce the identical trajectory.
	bare, err := RunAsync(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	if bare.ElapsedTime != res.ElapsedTime || bare.Resubmissions != res.Resubmissions {
		t.Fatalf("metrics changed the run: elapsed %v vs %v, resub %d vs %d",
			res.ElapsedTime, bare.ElapsedTime, res.Resubmissions, bare.Resubmissions)
	}
}

// TestAsyncDiagnosticsCadence attaches core.Diagnostics through the
// parallel checkpoint hook — the supported way to observe algorithm
// dynamics under the parallel drivers — and checks the cadence.
func TestAsyncDiagnosticsCadence(t *testing.T) {
	const n, every = 5000, 500
	var d core.Diagnostics
	cfg := testConfig(8, n)
	cfg.CheckpointEvery = every
	cfg.OnCheckpoint = func(_ float64, b *core.Borg) { d.Observe(b) }

	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	if got, want := len(d.Records), n/every; got != want {
		t.Fatalf("got %d diagnostic records, want %d", got, want)
	}
	for i := 1; i < len(d.Records); i++ {
		if d.Records[i].Evaluations <= d.Records[i-1].Evaluations {
			t.Fatalf("record %d not monotone: %d after %d", i,
				d.Records[i].Evaluations, d.Records[i-1].Evaluations)
		}
	}
	if last := d.Records[len(d.Records)-1]; last.ArchiveSize == 0 {
		t.Fatal("final diagnostic snapshot has an empty archive")
	}
}

// TestDistributedObservability is the loopback acceptance test for the
// telemetry tentpole: a real-TCP run with metrics, journal and
// diagnostics attached must (a) keep the diagnostics cadence, (b)
// count evaluations and worker joins, (c) see wire frames on the
// shared registry, and (d) produce a -trace file that validates
// against the Chrome trace-event schema.
func TestDistributedObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	const n, every = 1000, 250
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn := fastConn
	conn.Metrics = obs.NewRegistry()
	for i := 0; i < 3; i++ {
		seed := uint64(i + 1)
		go wire.RunWorker(ctx, wire.WorkerConfig{
			Addr: l.Addr().String(),
			Seed: seed,
			Conn: conn,
		})
	}

	var d core.Diagnostics
	cfg := distConfig(n)
	cfg.Metrics = conn.Metrics
	cfg.Events = obs.NewRecorder(0)
	cfg.CheckpointEvery = every
	cfg.OnCheckpoint = func(_ float64, b *core.Borg) { d.Observe(b) }

	res, err := RunAsyncDistributed(cfg, DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         conn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run incomplete: %d/%d", res.Evaluations, n)
	}

	if got, want := len(d.Records), n/every; got != want {
		t.Fatalf("got %d diagnostic records, want %d", got, want)
	}
	reg := cfg.Metrics
	if got := reg.Counter(mEvaluations).Value(); got != n {
		t.Errorf("%s = %d, want %d", mEvaluations, got, n)
	}
	if joins := reg.Counter(mJoins).Value(); joins < 3 {
		t.Errorf("%s = %d, want >= 3", mJoins, joins)
	}
	if tf := reg.Histogram(mTF, nil).Count(); tf != n {
		t.Errorf("%s count = %d, want %d", mTF, tf, n)
	}
	// The wire layer shares the registry (master side by default, the
	// worker side explicitly above), so protocol frames must be there.
	if frames := reg.Counter(wire.MetricFramesRecv).Value(); frames == 0 {
		t.Error("wire layer recorded no received frames")
	}

	// Golden check: the exported trace validates and shows the
	// distributed-specific shapes (joins, reconstructed eval spans).
	var buf bytes.Buffer
	if err := cfg.Events.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace fails schema validation: %v\n%s", err, firstKB(buf.Bytes()))
	}
	kinds := map[string]int{}
	for _, ev := range cfg.Events.Events() {
		kinds[ev.Kind]++
	}
	if kinds["worker.join"] < 3 {
		t.Errorf("journal has %d worker.join events, want >= 3", kinds["worker.join"])
	}
	if kinds["eval"] != n {
		t.Errorf("journal has %d eval spans, want %d", kinds["eval"], n)
	}
}

func firstKB(b []byte) string {
	if len(b) > 1024 {
		b = b[:1024]
	}
	return string(b)
}

// TestRealtimeMetrics smoke-checks the wall-clock executor's telemetry.
func TestRealtimeMetrics(t *testing.T) {
	cfg := testConfig(4, 300)
	cfg.TF = cfg.TC // keep sleeps tiny (6 µs)
	cfg.TA = nil
	cfg.Metrics = obs.NewRegistry()
	cfg.Events = obs.NewRecorder(0)
	res, err := RunAsyncRealtime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	if got := cfg.Metrics.Counter(mEvaluations).Value(); got != 300 {
		t.Fatalf("%s = %d, want 300", mEvaluations, got)
	}
	if cfg.Metrics.Histogram(mTA, nil).Count() != 300 {
		t.Fatal("realtime run missed T_A observations")
	}
	var buf bytes.Buffer
	if err := cfg.Events.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("realtime trace invalid: %v", err)
	}
	if !strings.Contains(buf.String(), `"algo"`) {
		t.Error("realtime trace has no algo spans")
	}
}

// TestIslandsMetrics checks the multi-island driver shares the same
// metric vocabulary.
func TestIslandsMetrics(t *testing.T) {
	base := testConfig(4, 500)
	base.Metrics = obs.NewRegistry()
	res, err := RunIslands(IslandsConfig{Base: base, Islands: 2, MigrationEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := base.Metrics.Counter(mEvaluations).Value(), res.TotalEvaluations; got != want {
		t.Fatalf("%s = %d, want %d", mEvaluations, got, want)
	}
	if got, want := base.Metrics.Counter(mMigrants).Value(), res.Migrants; got != want {
		t.Fatalf("%s = %d, want %d", mMigrants, got, want)
	}
	if base.Metrics.Histogram(mTF, nil).Count() == 0 {
		t.Fatal("islands run missed T_F observations")
	}
}

// BenchmarkAsyncInstrumented is BenchmarkAsyncFaultFree with the full
// metrics registry attached — the CI benchmark job diffs the two to
// enforce the <5% instrumentation-overhead budget.
func BenchmarkAsyncInstrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(16, 5000)
		cfg.Seed = uint64(i + 1)
		cfg.Metrics = obs.NewRegistry()
		if _, err := RunAsync(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncAdvised adds the live scalability advisor on top of the
// instrumented run — the CI benchmark job diffs it against
// BenchmarkAsyncFaultFree to enforce the same <5% overhead budget.
func BenchmarkAsyncAdvised(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(16, 5000)
		cfg.Seed = uint64(i + 1)
		cfg.Metrics = obs.NewRegistry()
		cfg.Advisor = advisor.New(advisor.Config{
			SnapshotEvery: 0.1,
			Registry:      cfg.Metrics,
		})
		if _, err := RunAsync(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAsyncLeaseExpireTraced: the master's lease.expire annotations
// reach a traced run's journal, formatted as before, while an untraced
// run hands the master no hook to format them for.
func TestAsyncLeaseExpireTraced(t *testing.T) {
	cfg := testConfig(12, 1500)
	cfg.StragglerFraction, cfg.StragglerFactor = 0.2, 30
	cfg.LeaseTimeout = 0.005
	cfg.Events = obs.NewRecorder(0)
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expired := 0
	for _, ev := range cfg.Events.Events() {
		if ev.Kind != "lease.expire" {
			continue
		}
		expired++
		var w, id int
		if n, err := fmt.Sscanf(ev.Detail, "worker=%d id=%d", &w, &id); n != 2 || err != nil || ev.Actor != "master" {
			t.Fatalf("lease.expire event %+v: want actor master, detail worker=<n> id=<n>", ev)
		}
	}
	if expired == 0 || res.Resubmissions == 0 {
		t.Fatalf("%d lease.expire events, %d resubmissions: the plan should expire leases", expired, res.Resubmissions)
	}
}
