package jobs

import (
	"context"
	"runtime"
	"testing"
	"time"

	"borgmoea/internal/wire"
)

// TestSchedulerFreshIDsSkipAnnounced is the id-collision regression on
// the job service: a fleet worker that outlived the previous server
// redials announcing id 2, and no fresh worker may then be handed an id
// a live worker holds.
func TestSchedulerFreshIDsSkipAnnounced(t *testing.T) {
	s, err := New(Config{FleetListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dial := func(announce uint64) uint64 {
		c, w, err := wire.Dial(s.FleetAddr(), wire.Hello{WorkerID: announce}, wire.Options{})
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
}

// TestSchedulerCloseGoroutinesConstant: Close leaves nothing behind —
// event loop, accept loop, readers and pingers all stop — and a worker
// that joins as the scheduler closes is disconnected (without a Stop:
// the fleet outlives a server) like every admitted one.
func TestSchedulerCloseGoroutinesConstant(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Config{FleetListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker := make(chan error, 1)
	go func() { worker <- wire.RunWorker(ctx, wire.WorkerConfig{Addr: s.FleetAddr()}) }()
	if _, err := s.Submit(&Spec{Problem: "ZDT1", Evaluations: 200, Population: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	waitJobs(t, s, 30*time.Second, func(st Status) bool { return st.State == StateDone })

	late, _, err := wire.Dial(s.FleetAddr(), wire.Hello{}, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Bound the wait: an unfixed scheduler can leave the joiner attached
	// and heart-beaten forever.
	stuck := make(chan struct{})
	defer time.AfterFunc(3*time.Second, func() { close(stuck); late.Close() }).Stop()
	if m, err := late.Recv(); err == nil {
		t.Fatalf("late joiner read %s after Close; want the link dropped without a Stop", m.Tag())
	}
	select {
	case <-stuck:
		t.Fatal("late joiner still attached 3s after Close")
	default:
	}
	late.Close()
	cancel()
	<-worker
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
