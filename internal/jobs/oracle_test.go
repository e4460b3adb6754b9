package jobs

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/wire"
)

// TestOneJobMatchesSocketMaster is the differential oracle between the
// two TCP masters: one job served by the scheduler to one worker, and a
// plain federation.SocketMaster run under the job's master.Config with
// the same seed, must give the same archive bytes and the same
// canonical BMEL stream.
//
// The job's core runs ScheduledOffspring: a worker that returns a
// result parks until the scheduler re-offers it with EvReady. A
// SocketMaster without a scheduler has no one to send that event, so
// its copy of the config serves under LazyOffspring, which re-offers
// the returning worker inside the same EvResult; every other field is
// the job's. With one worker the two policies make the same Suggest
// and Accept calls in the same order, so the only difference in the
// logs is the scheduler's EvReady after each result but the last — the
// test checks exactly that and strips them before comparing.
func TestOneJobMatchesSocketMaster(t *testing.T) {
	spec := Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 400, Population: 16, Seed: 11}
	leaseTimeout := 30 * time.Second

	// The job, persisted so its BMEL stream is on disk.
	dir := t.TempDir()
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: leaseTimeout, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobSpec := spec
	st, err := s.Submit(&jobSpec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 1, s.FleetAddr(), nil)
	waitJobs(t, s, 60*time.Second, func(st Status) bool { return st.State == StateDone })
	jobArchive, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, st.ID+".bmel"))
	if err != nil {
		t.Fatal(err)
	}
	jobLog, err := master.ReadLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if jobLog.Meta.Policy != master.ScheduledOffspring {
		t.Fatalf("job log records policy %d, want ScheduledOffspring", jobLog.Meta.Policy)
	}

	// The same job on a plain socket master.
	plainSpec := spec
	problem, algCfg, err := plainSpec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(problem, algCfg)
	if err != nil {
		t.Fatal(err)
	}
	terms := master.NewTerms(master.Wall, master.TermsConfig{})
	plainLog := master.NewLog()
	mcfg := master.Config{
		Budget:          plainSpec.Evaluations,
		LeaseTimeout:    leaseTimeout.Seconds(),
		Policy:          master.LazyOffspring,
		ReuseOnResubmit: true,
		Alg:             terms.Bracket(b, nil),
		Log:             plainLog,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	worker := make(chan error, 1)
	go func() { worker <- wire.RunWorker(ctx, wire.WorkerConfig{Addr: ln.Addr().String()}) }()
	sm := &federation.SocketMaster{Terms: terms, Start: time.Now(), LeaseTimeout: leaseTimeout, WallLimit: time.Minute, Name: "plain"}
	m, _, err := sm.Run(mcfg, ln, wire.Options{}, problem)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-worker; err != nil {
		t.Fatalf("plain master's worker: %v", err)
	}
	if m.Completed() != spec.Evaluations {
		t.Fatalf("plain master completed %d of %d", m.Completed(), spec.Evaluations)
	}
	plainArchive, err := core.AppendArchive(nil, b.Archive())
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(jobArchive, plainArchive) {
		t.Errorf("archives differ: job %d bytes, plain socket master %d bytes", len(jobArchive), len(plainArchive))
	}
	// Strip the scheduler's re-offers, each of which must follow a
	// result of the same worker.
	var stripped master.Log
	readies, results := 0, 0
	for i, ev := range jobLog.Events {
		switch ev.Kind {
		case master.EvReady:
			prev := i - 1
			for prev >= 0 && (jobLog.Events[prev].Kind == master.EvTick || jobLog.Events[prev].Kind == master.EvQuality) {
				prev--
			}
			if prev < 0 || jobLog.Events[prev].Kind != master.EvResult || jobLog.Events[prev].Worker != ev.Worker {
				t.Fatalf("job log event %d: EvReady for worker %d not right after its result", i, ev.Worker)
			}
			readies++
			continue
		case master.EvResult:
			results++
		}
		stripped.Events = append(stripped.Events, ev)
	}
	if readies != results-1 {
		t.Errorf("job log has %d EvReady for %d results, want one after each result but the last", readies, results)
	}
	if !bytes.Equal(stripped.CanonicalBytes(), plainLog.CanonicalBytes()) {
		t.Errorf("canonical logs differ: job %d events (%d re-offers stripped), plain socket master %d events",
			len(jobLog.Events), readies, len(plainLog.Events))
	}
}
