package parallel

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/des"
	"borgmoea/internal/fault"
	"borgmoea/internal/obs"
	"borgmoea/internal/wire"
)

// TestAsyncMetricsAndTrace attaches the full telemetry kit to a
// virtual-time run and checks that the registry, the DES trace hook and
// the span forest see the protocol: N accepted evaluations, T_A/T_F/T_C
// and queue-wait timing observations, the simulation's send/recv and
// busy-interval events, and a forest that exports to a valid Chrome
// trace.
func TestAsyncMetricsAndTrace(t *testing.T) {
	const n = 2000
	cfg := testConfig(8, n)
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewCollector(obs.CollectorConfig{RunID: cfg.Seed, Rate: 1})
	kinds := map[string]bool{}
	actors := map[string]bool{}
	cfg.Events = func(ev des.TraceEvent) {
		kinds[ev.Kind] = true
		actors[ev.Actor] = true
	}

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

	checkChromeForest(t, cfg.Trace, n)
	// The DES stream must carry per-worker eval spans and master sends.
	for _, k := range []string{"send", "recv", "eval.start", "eval.end", "algo.start", "algo.end"} {
		if !kinds[k] {
			t.Errorf("trace hook missing %q events", k)
		}
	}
	if !actors["master"] || !actors["worker1"] {
		t.Errorf("trace hook missing expected actors, got %v", actors)
	}
}

// checkChromeForest exports col's forest to Chrome trace_event JSON,
// validates it, and checks that n evaluation trees carry both a tf and
// a ta span.
func checkChromeForest(t *testing.T, col *obs.Collector, n int) {
	t.Helper()
	forest := col.Forest()
	var buf bytes.Buffer
	if err := obs.WriteChromeForests(&buf, []string{"master"}, []obs.Forest{forest}); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace fails schema validation: %v\n%s", err, firstKB(buf.Bytes()))
	}
	full := 0
	for _, root := range forest {
		terms := map[string]bool{}
		for _, ch := range root.Children {
			terms[ch.Name] = true
		}
		if root.Name == "eval" && terms["tf"] && terms["ta"] {
			full++
		}
	}
	if full != n {
		t.Errorf("forest has %d evaluation trees with tf and ta spans, want %d", full, n)
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

// TestAsyncDiagnosticsCadence snapshots the algorithm through a
// quality sampler — the supported way to observe algorithm dynamics
// under the parallel drivers — and checks the cadence.
func TestAsyncDiagnosticsCadence(t *testing.T) {
	const n, every = 5000, 500
	var snaps []obs.QualitySample
	cfg := testConfig(8, n)
	cfg.Quality = obs.NewQualitySampler(obs.QualityConfig{Every: every, OnSample: func(s obs.QualitySample) {
		snaps = append(snaps, s)
	}})

	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	if got, want := len(snaps), n/every; got != want {
		t.Fatalf("got %d samples, want %d", got, want)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Evaluations <= snaps[i-1].Evaluations {
			t.Fatalf("sample %d not monotone: %d after %d", i,
				snaps[i].Evaluations, snaps[i-1].Evaluations)
		}
	}
	if last := snaps[len(snaps)-1]; last.ArchiveSize == 0 {
		t.Fatal("final sample has an empty archive")
	}
}

// TestDistributedObservability is the loopback acceptance test for the
// telemetry tentpole: a real-TCP run with metrics, a rate-1 trace
// collector and a quality sampler attached must (a) keep the sampling
// cadence, (b) count evaluations and worker joins, (c) see wire frames
// on the shared registry, and (d) produce a -trace file that validates
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

	samples := 0
	cfg := distConfig(n)
	cfg.Metrics = conn.Metrics
	cfg.Trace = obs.NewCollector(obs.CollectorConfig{RunID: cfg.Seed, Rate: 1})
	cfg.Quality = obs.NewQualitySampler(obs.QualityConfig{Every: every, OnSample: func(obs.QualitySample) { samples++ }})

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

	if got, want := samples, n/every; got != want {
		t.Fatalf("got %d samples, want %d", got, want)
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
	if reg.Histogram(mTA, nil).Count() == 0 {
		t.Errorf("%s saw no observations", mTA)
	}
	// The wire layer shares the registry (master side by default, the
	// worker side explicitly above), so protocol frames must be there.
	if frames := reg.Counter(wire.MetricFramesRecv).Value(); frames == 0 {
		t.Error("wire layer recorded no received frames")
	}

	// Golden check: the exported trace validates and holds one
	// evaluation tree per accept, each with the worker's T_F and the
	// master's T_A.
	checkChromeForest(t, cfg.Trace, n)
}

// TestTracingAddsNoWireBytes: spans are built in the master from what
// it measures, so a traced run puts exactly the frames and bytes of an
// untraced one on the wire. One loopback worker runs the same seed and
// budget twice, with a rate-1 collector and without; heartbeats are
// far apart so no Ping or Pong is counted.
func TestTracingAddsNoWireBytes(t *testing.T) {
	const n = 200
	stop := uint64(len(wire.AppendFrame(nil, wire.Stop{})))
	run := func(trace *obs.Collector) [6]uint64 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mconn := wire.Options{Heartbeat: time.Hour, IdleTimeout: time.Minute, Metrics: obs.NewRegistry()}
		wconn := mconn
		wconn.Metrics = obs.NewRegistry()
		errc := make(chan error, 1)
		go func() {
			errc <- wire.RunWorker(context.Background(), wire.WorkerConfig{Addr: l.Addr().String(), Seed: 1, Conn: wconn})
		}()
		cfg := distConfig(n)
		cfg.Trace = trace
		res, err := RunAsyncDistributed(cfg, DistributedConfig{
			Listener:     l,
			LeaseTimeout: 10 * time.Second,
			Conn:         mconn,
			WallLimit:    time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("run incomplete: %d/%d", res.Evaluations, n)
		}
		if err := <-errc; err != nil {
			t.Fatalf("worker: %v", err)
		}
		m := func(name string) uint64 { return mconn.Metrics.Counter(name).Value() }
		w := func(name string) uint64 { return wconn.Metrics.Counter(name).Value() }
		// The master stops the finished worker, then stops every
		// session again as it closes. The worker returns on the first
		// Stop, so the frames it never decoded are repeated Stops, and
		// whether their bytes reach its socket is a race: the master →
		// worker direction counts what the worker decoded.
		unread := m(wire.MetricFramesSent) - w(wire.MetricFramesRecv)
		return [6]uint64{
			w(wire.MetricFramesSent), w(wire.MetricBytesSent),
			m(wire.MetricFramesRecv), m(wire.MetricBytesRecv),
			w(wire.MetricFramesRecv), m(wire.MetricBytesSent) - unread*stop,
		}
	}
	plain := run(nil)
	traced := run(obs.NewCollector(obs.CollectorConfig{RunID: 42, Rate: 1}))
	names := []string{
		"worker frames sent", "worker bytes sent", "master frames received", "master bytes received",
		"worker frames received", "master bytes sent, less unread Stops",
	}
	for i, name := range names {
		if plain[i] == 0 || traced[i] != plain[i] {
			t.Errorf("%s: traced run %d, untraced %d; want equal and nonzero", name, traced[i], plain[i])
		}
	}
}

func firstKB(b []byte) string {
	if len(b) > 1024 {
		b = b[:1024]
	}
	return string(b)
}

// TestRealtimeMetrics smoke-checks the wall-clock driver's telemetry
// at a size that also runs under -short: one loopback TCP worker, 300
// evaluations, every accept metered as T_A and traced with a ta span.
func TestRealtimeMetrics(t *testing.T) {
	const n = 300
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, l.Addr().String(), 1, nil)

	cfg := distConfig(n)
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewCollector(obs.CollectorConfig{RunID: cfg.Seed, Rate: 1})
	res, err := RunAsyncDistributed(cfg, DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         fastConn,
		WallLimit:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	if got := cfg.Metrics.Counter(mEvaluations).Value(); got != n {
		t.Fatalf("%s = %d, want %d", mEvaluations, got, n)
	}
	// Dispatch-path suggestions are metered too, so at least one T_A
	// observation per accept.
	if got := cfg.Metrics.Histogram(mTA, nil).Count(); got < n {
		t.Fatalf("%s count = %d, want >= %d", mTA, got, n)
	}
	checkChromeForest(t, cfg.Trace, n)
}

// TestDistributedTermsReachEverySink: on the socket path each grant's
// measured send is one T_C sample and each result's loop-lock wait one
// queue wait, and the meter hands both to every sink — the Result, the
// histograms, the advisor fit and the traces — so they agree, whether or
// not the run is traced.
func TestDistributedTermsReachEverySink(t *testing.T) {
	const n = 300
	for _, traced := range []bool{false, true} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		startWorker(ctx, l.Addr().String(), 1, nil)
		startWorker(ctx, l.Addr().String(), 2, nil)
		cfg := distConfig(n)
		cfg.Metrics = obs.NewRegistry()
		cfg.Advisor = advisor.New(advisor.Config{})
		if traced {
			cfg.Trace = obs.NewCollector(obs.CollectorConfig{RunID: 1, Rate: 1})
		}
		res, err := RunAsyncDistributed(cfg, DistributedConfig{
			Listener: l, LeaseTimeout: 10 * time.Second, Conn: fastConn, WallLimit: time.Minute,
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("run incomplete")
		}
		tc := cfg.Metrics.Histogram(mTC, nil)
		if tc.Count() < n || res.MeanTC <= 0 || math.Abs(tc.Mean()-res.MeanTC) > 1e-12 {
			t.Fatalf("traced=%v: %d T_C observations with mean %v, Result.MeanTC %v; want one per grant, agreeing", traced, tc.Count(), tc.Mean(), res.MeanTC)
		}
		r := cfg.Advisor.Report()
		if math.Abs(r.Times.TC-res.MeanTC) > 1e-9*res.MeanTC {
			t.Fatalf("traced=%v: advisor T_C %v, Result.MeanTC %v: the fit should use the measured sends", traced, r.Times.TC, res.MeanTC)
		}
		wait := cfg.Metrics.Histogram(mQueueWait, nil)
		if wait.Count() != n || math.Abs(r.QueueWaitMean-wait.Mean()) > 1e-9*wait.Mean()+1e-15 {
			t.Fatalf("traced=%v: %d queue waits (mean %v), advisor mean %v; want one per accepted result, agreeing", traced, wait.Count(), wait.Mean(), r.QueueWaitMean)
		}
		if !traced {
			continue
		}
		a := cfg.Trace.Forest().Attribution()
		if a.TCSend.N < n || a.Wait.N != n || a.TF.N != n || a.TA.N != n {
			t.Fatalf("trace terms %+v: want every evaluation's T_C send, wait, T_F and T_A", a)
		}
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

// instrumentedConfig is faultFreeConfig(i) with the full metrics
// registry attached: BenchmarkAsyncInstrumented against
// BenchmarkAsyncFaultFree gives the instrumentation overhead.
func instrumentedConfig(i int) Config {
	cfg := faultFreeConfig(i)
	cfg.Metrics = obs.NewRegistry()
	return cfg
}

// advisedConfig adds the live scalability advisor on top of
// instrumentedConfig(i); BenchmarkAsyncAdvised against
// BenchmarkAsyncFaultFree gives the whole telemetry stack's overhead.
func advisedConfig(i int) Config {
	cfg := instrumentedConfig(i)
	cfg.Advisor = advisor.New(advisor.Config{
		SnapshotEvery: 0.1,
		Registry:      cfg.Metrics,
	})
	return cfg
}

func BenchmarkAsyncInstrumented(b *testing.B) { benchAsync(b, instrumentedConfig) }
func BenchmarkAsyncAdvised(b *testing.B)      { benchAsync(b, advisedConfig) }

// TestAsyncLeaseExpireTraced: the master's lease.expire annotations
// reach a traced run's DES trace hook, formatted as before, while an
// untraced run hands the master no hook to format them for.
func TestAsyncLeaseExpireTraced(t *testing.T) {
	cfg := testConfig(12, 1500)
	cfg.StragglerFraction, cfg.StragglerFactor = 0.2, 30
	cfg.LeaseTimeout = 0.005
	var events []des.TraceEvent
	cfg.Events = func(ev des.TraceEvent) { events = append(events, ev) }
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expired := 0
	for _, ev := range events {
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
