package federation_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/problems"
	"borgmoea/internal/wire"
)

// TestFederationFreshIDsSkipAnnounced is the id-collision regression on
// an island master: after a worker redials announcing id 2, no fresh
// worker may be handed an id a live worker holds.
func TestFederationFreshIDsSkipAnnounced(t *testing.T) {
	addr := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		// No worker ever answers, so the island fails at its wall limit.
		_, err := federation.Run(federation.Config{
			Problem:     problems.NewDTLZ2(3),
			Algorithm:   core.Config{Epsilons: core.UniformEpsilons(3, 0.1)},
			Islands:     1,
			Evaluations: 100,
			Conn:        fastConn,
			WallLimit:   500 * time.Millisecond,
			OnListen:    func(_ int, a string) { addr <- a },
		})
		done <- err
	}()
	master := <-addr
	dial := func(announce uint64) uint64 {
		c, w, err := wire.Dial(master, wire.Hello{WorkerID: announce}, fastConn)
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
	if err := <-done; err == nil {
		t.Fatal("a run no worker ever answered reported success")
	}
}

// dialOnNth wraps a problem so that its n-th evaluation first runs
// hook — a way to act at a known point of an island's budget from the
// worker side.
type dialOnNth struct {
	problems.Problem
	n, seen int
	hook    func()
}

func (p *dialOnNth) Evaluate(vars, objs []float64) {
	if p.seen++; p.seen == p.n {
		p.hook()
	}
	p.Problem.Evaluate(vars, objs)
}

// TestFederationGoroutinesConstant: a two-island ring leaves nothing
// behind — worker hosts and peer-link sinks all stop — and a worker that joins island 0 while its last evaluation is
// in flight (so the island may never read its join) is stopped and
// closed like every admitted one.
func TestFederationGoroutinesConstant(t *testing.T) {
	base := runtime.NumGoroutine()
	const perIsl = 200
	problem := problems.NewDTLZ2(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var late *wire.Conn
	var lateErr error
	var workers sync.WaitGroup
	workerErrs := make([]error, 2)
	cfg := federation.Config{
		Problem:        problem,
		Algorithm:      core.Config{Epsilons: core.UniformEpsilons(3, 0.1)},
		Seed:           7,
		Islands:        2,
		Evaluations:    perIsl,
		MigrationEvery: 50,
		Conn:           fastConn,
		OnListen: func(isl int, addr string) {
			var p problems.Problem = problem
			if isl == 0 {
				p = &dialOnNth{Problem: problem, n: perIsl, hook: func() {
					late, _, lateErr = wire.Dial(addr, wire.Hello{}, fastConn)
				}}
			}
			workers.Add(1)
			go func() {
				defer workers.Done()
				workerErrs[isl] = wire.RunWorker(ctx, wire.WorkerConfig{
					Addr:    addr,
					Conn:    fastConn,
					Resolve: func(string) (problems.Problem, error) { return p, nil },
				})
			}()
		},
	}
	res, err := federation.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvaluations != 2*perIsl || res.Migrants == 0 {
		t.Fatalf("run: %d evaluations, %d migrants", res.TotalEvaluations, res.Migrants)
	}
	workers.Wait()
	for isl, err := range workerErrs {
		if err != nil {
			t.Fatalf("island %d worker exited with %v, want a clean stop", isl, err)
		}
	}
	if late == nil {
		t.Fatalf("late joiner never dialled: %v", lateErr)
	}
	// Bound the wait: an unfixed island leaves the joiner attached and
	// heart-beaten forever.
	defer time.AfterFunc(3*time.Second, func() { late.Close() }).Stop()
	stopped := false
	for {
		m, err := late.Recv()
		if err != nil {
			break
		}
		stopped = stopped || m.Tag() == wire.TagStop
	}
	if !stopped {
		t.Fatal("late joiner was never told to stop")
	}
	late.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
