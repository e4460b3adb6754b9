package jobs

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// heapAfterJobs runs n jobs of the given budget, at most maxActive at
// once (0: all), on a fresh scheduler without StateDir and a two-worker
// fleet, and returns the live heap after a forced GC, read while the
// scheduler and every finished job's record are still alive, and the
// mean size of the finished jobs' results. Each call's workers have
// exited before it returns, so consecutive calls measure from the same
// baseline.
func heapAfterJobs(t *testing.T, n, maxActive int, budget uint64) (heap uint64, result float64) {
	t.Helper()
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 5 * time.Second, MaxActive: maxActive})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	const fleet = 2
	exited := make(chan error, fleet)
	for i := 0; i < fleet; i++ {
		go func(seed uint64) {
			exited <- wire.RunWorker(ctx, wire.WorkerConfig{Addr: s.FleetAddr(), Seed: seed})
		}(uint64(i + 1))
	}
	defer func() {
		s.Close()
		cancel()
		for i := 0; i < fleet; i++ {
			<-exited
		}
	}()
	for i := 0; i < n; i++ {
		// DTLZ2_2's ε-archive is near its final size by 2000
		// evaluations, so the search state barely differs between the
		// two budgets and what remains is per-evaluation retention.
		spec := &Spec{Problem: "DTLZ2", Objectives: 2, Evaluations: budget, Population: 8, Seed: uint64(i + 1)}
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	list := waitJobs(t, s, 120*time.Second, func(st Status) bool { return st.State == StateDone })
	if err := s.do(func() {
		for _, j := range s.jobs {
			if j.log != nil {
				t.Errorf("%s: a job without StateDir records an event log", j.id)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, st := range list {
		data, err := s.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		result += float64(len(data)) / float64(len(list))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, result
}

// TestSchedulerHeapFlatPerEvaluation: the job service's live heap
// grows with the jobs it holds, not with the evaluations it has served:
// four jobs at a 4x larger budget hold no per-evaluation record. A
// retained event log costs about 110 B per evaluation.
func TestSchedulerHeapFlatPerEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	const jobsN, small, large = 4, 2000, 8000
	hSmall, _ := heapAfterJobs(t, jobsN, 0, small)
	hLarge, _ := heapAfterJobs(t, jobsN, 0, large)
	slope := (float64(hLarge) - float64(hSmall)) / float64(jobsN*(large-small))
	t.Logf("live heap %d B after %d evaluations, %d B after %d: %.1f B/eval",
		hSmall, jobsN*small, hLarge, jobsN*large, slope)
	if slope >= 8 {
		t.Errorf("live heap grows %.1f B per evaluation served, want < 8", slope)
	}
}

// TestSchedulerHeapFlatPerJob: a finished job keeps its answer, not its
// algorithm. With two jobs running at a time, the live heap grows per
// finished job by its archive document and its frozen status, not by a
// Borg, a core or an advisor: 14 jobs against 2 cost under 8 KB per job
// beyond the document.
func TestSchedulerHeapFlatPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	const few, many, budget = 2, 14, 2000
	hFew, _ := heapAfterJobs(t, few, 2, budget)
	hMany, result := heapAfterJobs(t, many, 2, budget)
	slope := (float64(hMany) - float64(hFew)) / (many - few)
	t.Logf("live heap %d B after %d jobs, %d B after %d: %.0f B per job, results %.0f B",
		hFew, few, hMany, many, slope, result)
	if slope >= result+8<<10 {
		t.Errorf("live heap grows %.0f B per finished job, want under its %.0f B result plus 8 KB", slope, result)
	}
}

// TestResumeStreamsWithoutRetaining: with StateDir a job's events go
// to its <id>.bmel and nowhere else — neither a running job nor one
// resumed from its checkpoint holds them in memory — and the file
// still replays to the archive the server serves.
func TestResumeStreamsWithoutRetaining(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	dir := t.TempDir()
	cfg := Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 2 * time.Second, StateDir: dir, Logf: t.Logf}
	spec := &Spec{Problem: "ZDT1", Evaluations: 600, Population: 8, Seed: 5}
	retainsNone := func(s *Scheduler, id string) {
		t.Helper()
		if err := s.do(func() {
			l := s.jobs[id].log
			switch {
			case l == nil || l.Sink == nil:
				t.Errorf("%s: job with StateDir has no streaming log", id)
			case len(l.Events) != 0:
				t.Errorf("%s: %s job retains %d events in memory", id, s.jobs[id].state, len(l.Events))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	startWorkers(ctx1, 2, s1.FleetAddr(), stats.NewConstant(0.002))
	waitJobs(t, s1, 60*time.Second, func(st Status) bool { return st.Evaluations >= 100 })
	retainsNone(s1, st.ID)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	cancel1()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get(st.ID); err != nil || got.State != StateRunning {
		t.Fatalf("resumed %s: %+v, %v; want running", st.ID, got, err)
	}
	retainsNone(s2, st.ID)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	startWorkers(ctx2, 2, s2.FleetAddr(), nil)
	waitJobs(t, s2, 60*time.Second, func(st Status) bool { return st.State == StateDone })
	retainsNone(s2, st.ID)

	_, b := replayFromFile(t, dir, st.ID, spec)
	served, err := s2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveJSON(t, b), served) {
		t.Errorf("%s: replaying its checkpoint log disagrees with the served archive", st.ID)
	}
}
