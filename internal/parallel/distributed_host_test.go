package parallel

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/wire"
)

// TestDistributedFreshIDsSkipAnnounced is the id-collision regression:
// a worker that outlived a previous master redials announcing id 2, and
// no fresh worker may then be handed id 2 as well (the two would steal
// the identity from each other on every redial).
func TestDistributedFreshIDsSkipAnnounced(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// No worker ever answers, so the run ends at the wall limit.
		_, err := RunAsyncDistributed(distConfig(100), DistributedConfig{Listener: l, Conn: fastConn, WallLimit: 500 * time.Millisecond})
		done <- err
	}()
	dial := func(announce uint64) uint64 {
		c, w, err := wire.Dial(l.Addr().String(), wire.Hello{WorkerID: announce}, fastConn)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return w.WorkerID
	}
	if id := dial(2); id != 2 {
		t.Fatalf("worker announcing id 2 was welcomed as %d", id)
	}
	live := map[uint64]bool{2: true}
	for i := 0; i < 3; i++ {
		id := dial(0)
		if live[id] {
			t.Fatalf("fresh worker %d was handed id %d, which a live worker holds", i, id)
		}
		live[id] = true
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// runSocketMaster runs cfg's Borg on the socket master
// RunAsyncDistributed drives — lazy offspring, a wall-clock meter,
// 30 s leases — for the workers that dial l, with onAccept as the
// core's OnAccept: a probe at an exact accept count, under the loop
// lock.
func runSocketMaster(t *testing.T, l net.Listener, cfg Config, onAccept func(accepted uint64)) {
	t.Helper()
	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b := core.MustNew(cfg.Problem, algCfg)
	terms := master.NewTerms(master.Wall, master.TermsConfig{})
	sm := &federation.SocketMaster{
		Terms: terms, Start: time.Now(), LeaseTimeout: 30 * time.Second, WallLimit: 2 * time.Minute, Name: "parallel",
	}
	m, _, err := sm.Run(master.Config{
		Budget:   cfg.Evaluations,
		Policy:   master.LazyOffspring,
		Alg:      terms.Bracket(b, nil),
		OnAccept: func(accepted uint64, _ float64) { onAccept(accepted) },
	}, l, fastConn, cfg.Problem)
	if err != nil || m.Completed() != cfg.Evaluations {
		t.Fatalf("run: %v after %d of %d evaluations", err, m.Completed(), cfg.Evaluations)
	}
}

// TestDistributedGoroutinesConstant: a socket master's run leaves
// nothing behind — not the accept loop, not a reader or pinger, and not
// the late joiner whose handshake completes after the loop's last read
// (dialled from the core's OnAccept at the final accept), which must be
// stopped and closed like every admitted worker.
func TestDistributedGoroutinesConstant(t *testing.T) {
	base := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker := startWorker(ctx, l.Addr().String(), 1, nil)

	cfg := distConfig(300)
	var late *wire.Conn
	runSocketMaster(t, l, cfg, func(accepted uint64) {
		if accepted == cfg.Evaluations {
			late, _, err = wire.Dial(l.Addr().String(), wire.Hello{}, fastConn)
		}
	})
	if late == nil {
		t.Fatalf("late joiner never dialled: %v", err)
	}
	// Bound the wait: an unfixed master leaves the joiner attached and
	// heart-beaten forever.
	defer time.AfterFunc(3*time.Second, func() { late.Close() }).Stop()
	if m, err := late.Recv(); err != nil || m.Tag() != wire.TagStop {
		t.Fatalf("late joiner read %v, %v after the run; want Stop", m, err)
	}
	if _, err := late.Recv(); err == nil {
		t.Fatal("late joiner still attached after the run")
	}
	late.Close()
	if err := <-worker; err != nil {
		t.Fatalf("worker exited with %v, want a clean stop", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
