package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/stats"
)

// checkFrozen fails unless every terminal job of s holds no algorithm
// state, and, with StateDir, no archive bytes, and unless s keeps no
// more spare Borgs than the most jobs it ran at once.
func checkFrozen(t *testing.T, s *Scheduler) {
	t.Helper()
	if err := s.do(func() {
		for _, id := range s.order {
			j := s.jobs[id]
			if !j.state.Terminal() {
				continue
			}
			if j.final == nil {
				t.Errorf("%s: %s job is not frozen", id, j.state)
			}
			if j.borg != nil || j.mcore != nil || j.adv != nil || j.terms != nil || j.quality != nil {
				t.Errorf("%s: %s job holds algorithm state: borg %v, core %v, advisor %v, meter %v, sampler %v", id, j.state,
					j.borg != nil, j.mcore != nil, j.adv != nil, j.terms != nil, j.quality != nil)
			}
			if j.ck != nil && j.result != nil {
				t.Errorf("%s: %s job with StateDir holds %d archive bytes", id, j.state, len(j.result))
			}
			if len(j.workers) != 0 {
				t.Errorf("%s: %s job still has %d workers assigned", id, j.state, len(j.workers))
			}
		}
		if len(s.spares) > s.peakActive {
			t.Errorf("%d spare Borgs, but at most %d jobs ran at once", len(s.spares), s.peakActive)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerFreezesTerminalJobs: done and cancelled jobs, with and
// without StateDir, keep their status, advisor report and result and
// drop their algorithm. A finished job's status and report stop
// changing, its result is what it was when it finished, and with
// StateDir the result is the job's archive file.
func TestSchedulerFreezesTerminalJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	for _, durable := range []bool{false, true} {
		name := "memory"
		cfg := Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 5 * time.Second, MaxActive: 2, Logf: t.Logf}
		if durable {
			name, cfg.StateDir = "state dir", t.TempDir()
		}
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var ids []string
			for i := 0; i < 4; i++ {
				st, err := s.Submit(&Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 400, Population: 8,
					Seed: uint64(i + 1), QualityEvery: 100})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, st.ID)
			}
			long, err := s.Submit(&Spec{Problem: "ZDT1", Evaluations: 1_000_000, Population: 8})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			startWorkers(ctx, 2, s.FleetAddr(), stats.NewConstant(0.0005))
			waitJobs(t, s, 60*time.Second, func(st Status) bool { return st.State == StateDone || st.ID == long.ID })
			if err := s.Cancel(long.ID); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, long.ID)
			checkFrozen(t, s)

			for _, id := range ids {
				first, err := s.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if first.Advisor == nil || first.Advisor.Completed != first.Evaluations {
					t.Errorf("%s: frozen advisor report %+v for %d evaluations", id, first.Advisor, first.Evaluations)
				}
				if first.State == StateDone && (first.Quality == nil || first.ArchiveSize == 0 || first.Evaluations != 400) {
					t.Errorf("%s: frozen status %+v lost its counters or quality sample", id, first)
				}
				data, err := s.Result(id)
				if err != nil {
					t.Fatal(err)
				}
				arch, err := core.LoadArchive(bytes.NewReader(data), 0)
				if err != nil || arch.Size() != first.ArchiveSize {
					t.Errorf("%s: result of %d members (%v), status says %d", id, arch.Size(), err, first.ArchiveSize)
				}
				if durable {
					file, err := os.ReadFile(filepath.Join(cfg.StateDir, id+".archive.json"))
					if err != nil || !bytes.Equal(file, data) {
						t.Errorf("%s: result is not the archive file (%v)", id, err)
					}
				}
			}
			// Time passes and the fleet moves on; a frozen record does not.
			before, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond)
			after, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			for i := range before {
				if before[i] != after[i] {
					t.Errorf("%s: frozen status changed: %+v -> %+v", before[i].ID, before[i], after[i])
				}
			}
			checkFrozen(t, s)
		})
	}
}

// TestSchedulerReuseMatchesFresh: a job that starts on a finished
// job's Borg returns, with one worker, the result it returns on a
// fresh scheduler's new Borg, byte for byte.
func TestSchedulerReuseMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	first := &Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 1500, Population: 16, Seed: 4}
	second := &Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 2500, Population: 16, Seed: 9, Epsilon: 0.05}
	// run submits the specs one after another to a scheduler with one
	// worker, and returns the last one's result and the Borg each ran on.
	run := func(specs ...*Spec) ([]byte, []*core.Borg) {
		s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		startWorkers(ctx, 1, s.FleetAddr(), nil)
		var result []byte
		var borgs []*core.Borg
		for _, spec := range specs {
			sp := *spec
			st, err := s.Submit(&sp)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.do(func() { borgs = append(borgs, s.jobs[st.ID].borg) }); err != nil {
				t.Fatal(err)
			}
			waitJobs(t, s, 60*time.Second, func(st Status) bool { return st.State == StateDone })
			if result, err = s.Result(st.ID); err != nil {
				t.Fatal(err)
			}
		}
		checkFrozen(t, s)
		return result, borgs
	}
	reused, borgs := run(first, second)
	if borgs[0] == nil || borgs[1] != borgs[0] {
		t.Fatal("the second job did not start on the first job's Borg")
	}
	fresh, _ := run(second)
	if !bytes.Equal(reused, fresh) {
		t.Errorf("the job's result on a reused Borg (%d B) differs from a fresh scheduler's (%d B)", len(reused), len(fresh))
	}
}

// TestSchedulerGetAllocs pins what a status poll costs: a running
// job's Get builds its advisor report (the worker table, and the
// report the Status points to) and nothing else; a finished job's Get
// allocates at most once.
func TestSchedulerGetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	// Long leases: no tick lands inside the measurement.
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done, err := s.Submit(&Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 300, Population: 8})
	if err != nil {
		t.Fatal(err)
	}
	running, err := s.Submit(&Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 1_000_000, Population: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	startWorkers(ctx, 3, s.FleetAddr(), nil)
	waitJobs(t, s, 60*time.Second, func(st Status) bool { return st.ID == running.ID || st.State == StateDone })
	// Give the running job samples from every worker, then let the
	// fleet go so the process is quiet while allocations are counted.
	waitJobs(t, s, 60*time.Second, func(st Status) bool { return st.ID == done.ID || st.Evaluations >= 600 })
	cancel()
	waitJobs(t, s, 10*time.Second, func(st Status) bool { return st.Workers == 0 })

	st, err := s.Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Advisor == nil || len(st.Advisor.Workers) < 3 {
		t.Fatalf("running job: %s with advisor %+v, want running with three workers' samples", st.State, st.Advisor)
	}
	want := 2.0
	if len(st.Advisor.Stragglers) > 0 {
		want++ // the straggler list
	}
	n := testing.AllocsPerRun(100, func() { s.Get(running.ID) })
	t.Logf("Get of a running job: %.1f allocations", n)
	if n > want {
		t.Errorf("Get of a running job: %.1f allocations, want at most %.0f", n, want)
	}
	n = testing.AllocsPerRun(100, func() { s.Get(done.ID) })
	t.Logf("Get of a finished job: %.1f allocations", n)
	if n > 1 {
		t.Errorf("Get of a finished job: %.1f allocations, want at most 1", n)
	}
}
