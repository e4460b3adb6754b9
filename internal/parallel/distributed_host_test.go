package parallel

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"borgmoea/internal/core"
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

// TestDistributedGoroutinesConstant: a distributed run leaves nothing
// behind — not the accept loop, not a reader or pinger, and not the
// late joiner whose handshake completes after the loop's last read
// (dialled from the checkpoint hook at the final accept), which must be
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
	cfg.CheckpointEvery = cfg.Evaluations
	var late *wire.Conn
	cfg.OnCheckpoint = func(float64, *core.Borg) {
		late, _, err = wire.Dial(l.Addr().String(), wire.Hello{}, fastConn)
	}
	res, rerr := RunAsyncDistributed(cfg, DistributedConfig{Listener: l, Conn: fastConn, WallLimit: time.Minute})
	if rerr != nil || !res.Completed {
		t.Fatalf("run: %v, completed=%v", rerr, res != nil && res.Completed)
	}
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
