package parallel

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/fault"
	"borgmoea/internal/master"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// TestCrossTransportEquivalence: with a fixed seed and one worker, the
// DES and loopback-TCP drivers must drive the shared state machine
// through the byte-identical logical event sequence (canonical log:
// kinds, workers, lease ids — clocks and polling ticks excluded) and
// end with byte-identical archives. This is the tentpole property of
// the shared core: fault-tolerance and protocol semantics cannot drift
// between transports because there is only one implementation. It
// runs under -short too: 300 evaluations on one loopback worker.
func TestCrossTransportEquivalence(t *testing.T) {
	const n = 300
	mk := func() Config {
		return Config{
			Problem:     problems.NewDTLZ2(5),
			Algorithm:   core.Config{Epsilons: core.UniformEpsilons(5, 0.15)},
			Processors:  2, // one worker: the result order is forced on every transport
			Evaluations: n,
			TF:          stats.NewConstant(1e-5),
			Seed:        42,
			Protocol:    master.NewLog(),
		}
	}

	desCfg := mk()
	desRes, err := RunAsync(desCfg)
	if err != nil {
		t.Fatal(err)
	}
	desLog, desArch := desCfg.Protocol.CanonicalBytes(), archiveBytes(t, desRes)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, l.Addr().String(), 1, nil)

	tcpCfg := mk()
	tcpRes, err := RunAsyncDistributed(tcpCfg, DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(desLog, tcpCfg.Protocol.CanonicalBytes()) {
		t.Error("TCP: canonical event sequence differs from DES")
	}
	if !bytes.Equal(desArch, archiveBytes(t, tcpRes)) {
		t.Error("TCP: final archive differs from DES")
	}
}

// TestReplayAsyncReproducesFaultyRun: a recorded DES run — including
// crashes, lease expiries, resubmissions and duplicates — replays
// off-line (through a serialization round trip) to the identical
// Result: same counters, same T_P, same archive bytes.
func TestReplayAsyncReproducesFaultyRun(t *testing.T) {
	cfg := testConfig(8, 3000)
	cfg.Fault = fault.FailedFractionPlan(0.05, 0.02, 21)
	cfg.Protocol = master.NewLog()
	orig, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Completed {
		t.Fatalf("faulty run did not complete: %d evaluations", orig.Evaluations)
	}
	if orig.Resubmissions == 0 {
		t.Fatal("fault plan injected no resubmissions; the replay test needs a non-trivial log")
	}

	var buf bytes.Buffer
	if _, err := cfg.Protocol.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := master.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayAsync(testConfig(8, 3000), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluations != orig.Evaluations || rep.Resubmissions != orig.Resubmissions ||
		rep.LostEvaluations != orig.LostEvaluations || rep.DuplicateResults != orig.DuplicateResults {
		t.Fatalf("replayed counters diverged:\n  original %+v\n  replay   %+v", orig, rep)
	}
	if rep.ElapsedTime != orig.ElapsedTime {
		t.Fatalf("replayed T_P %v != original %v", rep.ElapsedTime, orig.ElapsedTime)
	}
	if !bytes.Equal(archiveBytes(t, orig), archiveBytes(t, rep)) {
		t.Fatal("replayed archive differs from the original run's")
	}
}
