package parallel

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/fault"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// distConfig is the acceptance scenario: 5-objective DTLZ2 to N
// evaluations.
func distConfig(n uint64) Config {
	return Config{
		Problem:     problems.NewDTLZ2(5),
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(5, 0.15)},
		Evaluations: n,
		Seed:        42,
	}
}

// fastConn keeps handshakes and failure detection snappy in tests.
var fastConn = wire.Options{Heartbeat: 50 * time.Millisecond, IdleTimeout: 10 * time.Second}

// startWorker launches one in-process borgd-equivalent worker and
// returns its error channel.
func startWorker(ctx context.Context, addr string, seed uint64, delay stats.Distribution) chan error {
	errc := make(chan error, 1)
	go func() {
		errc <- wire.RunWorker(ctx, wire.WorkerConfig{
			Addr:  addr,
			Seed:  seed,
			Delay: delay,
			Conn:  fastConn,
		})
	}()
	return errc
}

// TestDistributedLoopback: a master and three real-TCP workers run
// DTLZ2 (M=5) to N=2,000 evaluations and complete with a non-empty
// archive, no loss accounting, and — under CaptureTimings — one T_F
// sample per evaluation.
func TestDistributedLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		startWorker(ctx, l.Addr().String(), uint64(i+1), nil)
	}

	cfg := distConfig(2000)
	cfg.CaptureTimings = true
	res, err := RunAsyncDistributed(cfg, DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Evaluations != 2000 {
		t.Fatalf("Completed=%v Evaluations=%d, want full budget", res.Completed, res.Evaluations)
	}
	if got := uint64(len(res.TFSamples)); got != res.Evaluations || len(res.TASamples) == 0 {
		t.Fatalf("%d T_F and %d T_A samples for %d evaluations", got, len(res.TASamples), res.Evaluations)
	}
	if res.Final.Archive().Size() == 0 {
		t.Fatal("distributed run produced an empty archive")
	}
	if res.Processors < 4 {
		t.Fatalf("Processors=%d, want 1 master + >=3 workers observed", res.Processors)
	}
	if res.Resubmissions != 0 || res.DuplicateResults != 0 {
		t.Fatalf("healthy run recorded resubmissions=%d duplicates=%d", res.Resubmissions, res.DuplicateResults)
	}
	if res.ElapsedTime <= 0 || res.MasterBusy <= 0 {
		t.Fatalf("timing accounting missing: elapsed=%v busy=%v", res.ElapsedTime, res.MasterBusy)
	}
}

// TestDistributedWorkerKillResubmits hard-kills one worker mid-
// evaluation: its in-flight lease must be resubmitted to the surviving
// workers and the run must still complete the full budget.
func TestDistributedWorkerKillResubmits(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Two healthy fast workers…
	startWorker(ctx, l.Addr().String(), 1, nil)
	startWorker(ctx, l.Addr().String(), 2, nil)
	// …and a victim whose evaluations take far longer than the run, so
	// it is guaranteed to hold an unfinished lease when killed.
	victimCtx, killVictim := context.WithCancel(ctx)
	victimErr := startWorker(victimCtx, l.Addr().String(), 3, stats.NewConstant(30))
	kill := time.AfterFunc(500*time.Millisecond, killVictim)
	defer kill.Stop()

	res, err := RunAsyncDistributed(distConfig(2000), DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Evaluations != 2000 {
		t.Fatalf("Completed=%v Evaluations=%d, want full budget despite the kill", res.Completed, res.Evaluations)
	}
	if res.Resubmissions == 0 || res.LostEvaluations == 0 {
		t.Fatalf("killed worker's lease was never resubmitted: resubmissions=%d lost=%d",
			res.Resubmissions, res.LostEvaluations)
	}
	if res.Final.Archive().Size() == 0 {
		t.Fatal("run with a killed worker produced an empty archive")
	}
	if err := <-victimErr; err != context.Canceled {
		t.Fatalf("victim exited with %v, want context.Canceled", err)
	}
}

// TestDistributedLeaseExpiryRecovers: with a short lease timeout and a
// worker that never answers (but keeps its connection alive via
// heartbeats), the deadline queue alone must recover the work.
func TestDistributedLeaseExpiryRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, l.Addr().String(), 1, nil)
	startWorker(ctx, l.Addr().String(), 2, nil)
	// The hung worker heartbeats (live TCP) but sleeps through the
	// whole run, so only lease expiry can reclaim its work.
	startWorker(ctx, l.Addr().String(), 3, stats.NewConstant(30))

	res, err := RunAsyncDistributed(distConfig(500), DistributedConfig{
		Listener:     l,
		LeaseTimeout: 300 * time.Millisecond,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %d/%d", res.Evaluations, 500)
	}
	if res.Resubmissions == 0 {
		t.Fatal("expired lease was never resubmitted")
	}
}

// TestDistributedAgreesWithVirtual is the paper's experiment-vs-
// simulation check at toy size: four loopback workers hold each
// evaluation for 2 ms, then the virtual-time driver, fed the T_F and
// T_A the real run measured, must not predict a run more than 10 %
// slower than the wall clock. The model leaves out only costs
// (syscalls, wake-ups, uneven workers) that add to wall-clock time, and
// how much they add is the host's business, so the bound is one-sided.
func TestDistributedAgreesWithVirtual(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short mode")
	}
	const tf = 0.002
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 4; i++ {
		startWorker(ctx, l.Addr().String(), uint64(i+1), stats.NewConstant(tf))
	}
	cfg := testConfig(5, 400)
	cfg.TA = nil // the TCP master measures T_A
	real, err := RunAsyncDistributed(cfg, DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !real.Completed {
		t.Fatalf("run incomplete: %d/%d", real.Evaluations, cfg.Evaluations)
	}
	// Sleeps never undershoot, and on a loaded host overshoot by any
	// factor, so the run reports the T_F it measured, not the nominal.
	if real.MeanTF < tf {
		t.Fatalf("measured mean T_F %v below the %v slept", real.MeanTF, tf)
	}
	cfg.TF = stats.NewConstant(real.MeanTF)
	cfg.TA = stats.NewConstant(real.MeanTA)
	virt, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if real.ElapsedTime < 0.9*virt.ElapsedTime {
		t.Fatalf("virtual T_P %v is pessimistic against wall-clock %v at measured T_F %v",
			virt.ElapsedTime, real.ElapsedTime, real.MeanTF)
	}
	t.Logf("wall-clock %v, virtual %v (ratio %.3f) at measured T_F %v, T_A %v",
		real.ElapsedTime, virt.ElapsedTime, real.ElapsedTime/virt.ElapsedTime, real.MeanTF, real.MeanTA)
}

// TestDistributedValidation mirrors the virtual drivers' error style.
func TestDistributedValidation(t *testing.T) {
	cfg := distConfig(100)
	cfg.Fault = &fault.Plan{Rules: []fault.Rule{{Ranks: []int{1}, Model: fault.CrashStop{At: stats.NewConstant(1)}}}}
	_, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "virtual-time driver") {
		t.Fatalf("fault plan accepted by distributed driver: %v", err)
	}

	cfg = distConfig(100)
	cfg.Problem = nil
	if _, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Error("nil problem accepted")
	}

	cfg = distConfig(0)
	if _, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Error("zero evaluations accepted")
	}

	if _, err := RunAsyncDistributed(distConfig(100), DistributedConfig{}); err == nil {
		t.Error("missing listen address accepted")
	}
}

// TestRealtimeValidation: the wall-clock driver rejects an incomplete
// config before it opens a socket, so the error names the missing
// field even when the listen address is already taken.
func TestRealtimeValidation(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for name, mut := range map[string]func(*Config){
		"nil problem":      func(c *Config) { c.Problem = nil },
		"zero evaluations": func(c *Config) { c.Evaluations = 0 },
	} {
		cfg := distConfig(100)
		mut(&cfg)
		_, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: busy.Addr().String()})
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if strings.Contains(err.Error(), "listen") {
			t.Errorf("%s: socket opened before validation: %v", name, err)
		}
	}
}

// TestRealtimeFaultCheckBeforeNormalize: on the wall-clock driver the
// fault-plan rejection is the cheap validation that runs first — a
// config that is *also* invalid (no problem, no budget) must still get
// the fault error, and the message must point at the virtual-time
// drivers.
func TestRealtimeFaultCheckBeforeNormalize(t *testing.T) {
	cfg := distConfig(0)
	cfg.Problem = nil
	cfg.Fault = &fault.Plan{Rules: []fault.Rule{{
		Ranks: []int{1},
		Model: fault.CrashStop{At: stats.NewConstant(1)},
	}}}
	_, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: "127.0.0.1:0", WallLimit: time.Second})
	if err == nil {
		t.Fatal("fault plan accepted by the wall-clock driver")
	}
	if !strings.Contains(err.Error(), "virtual-time driver") {
		t.Fatalf("fault check did not run first: %v", err)
	}
}

// TestDistributedSteadyStateAllocs: over real TCP with one in-process
// loopback worker, the whole process — master loop, socket host,
// worker and codec — allocates at most 0.05 objects per evaluation
// once warm. The offspring, its Vars and its objectives reuse the
// storage of solutions that left the population and archive, so what
// is left is growth of the live set.
func TestDistributedSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	const warm, n = 10_000, 20_000
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, l.Addr().String(), 1, nil)
	cfg := Config{
		Problem:         problems.NewDTLZ2(3),
		Algorithm:       core.Config{Epsilons: core.UniformEpsilons(3, 0.1)},
		Evaluations:     n,
		Seed:            1,
		CheckpointEvery: warm,
	}
	var mallocs [2]uint64
	cfg.OnCheckpoint = func(float64, *core.Borg) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs[0], mallocs[1] = mallocs[1], ms.Mallocs
	}
	res, err := RunAsyncDistributed(cfg, DistributedConfig{Listener: l, Conn: fastConn, WallLimit: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	perEval := float64(mallocs[1]-mallocs[0]) / (n - warm)
	t.Logf("%.4f allocations per evaluation after %d warm-up evaluations", perEval, warm)
	if perEval > 0.05 {
		t.Fatalf("%.3f allocations per evaluation once warm, budget 0.05", perEval)
	}
}
