package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
	"borgmoea/internal/stats"
)

// readLog reads a job's <id>.bmel.
func readLog(t *testing.T, dir, id string) *master.Log {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, id+".bmel"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := master.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestRunHeaderAtAccept: a job's log exists from accept on, as a header
// with no events naming its spec and accept-time stamps, and that
// header is the LogMeta the job's core stamps when it starts — for the
// job that starts at once and for the one that waits in the queue.
func TestRunHeaderAtAccept(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 3 * time.Second, StateDir: dir, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.Submit(&Spec{Problem: "ZDT1", Evaluations: 100, Population: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(&Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 50, Epsilon: 0.05, Seed: 9, QualityEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	accepted := readLog(t, dir, b.ID)
	if st, _ := s.Get(b.ID); st.State != StateQueued || len(accepted.Events) != 0 {
		t.Fatalf("%s is %s with %d logged events; want queued with none", b.ID, st.State, len(accepted.Events))
	}
	run := accepted.Meta.Run
	if run == nil || run.Spec.Problem != "DTLZ2" || run.Spec.Seed != 9 || run.SubmittedAt != b.SubmittedAt || run.SubmittedSeconds != b.SubmittedSeconds {
		t.Fatalf("%s's header names %+v, want its spec and the stamps of %+v", b.ID, run, b)
	}
	if err := s.Cancel(a.ID); err != nil { // b starts
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		var stamped master.LogMeta
		if err := s.do(func() { stamped = s.jobs[id].log.Meta }); err != nil {
			t.Fatal(err)
		}
		if header := readLog(t, dir, id).Meta; !reflect.DeepEqual(header, stamped) {
			t.Errorf("%s: header at accept %+v (run %+v), its core stamped %+v (run %+v)", id, header, *header.Run, stamped, *stamped.Run)
		}
	}
}

// TestJobLogReplaysFromItsHeader: a finished job's <id>.bmel replays,
// from its own header and nothing else, to the job's archive.json, and
// its recorded sample points regenerate the quality the job reported,
// bit for bit.
func TestJobLogReplaysFromItsHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 5 * time.Second, StateDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(&Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 300, Population: 16, Seed: 4, QualityEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 3, s.FleetAddr(), nil)
	waitJobs(t, s, 60*time.Second, func(st Status) bool { return st.State == StateDone })
	final, err := s.Get(st.ID)
	if err != nil || final.Quality == nil {
		t.Fatalf("%+v, %v; want a finished job with a quality sample", final, err)
	}

	log := readLog(t, dir, st.ID)
	spec := *log.Meta.Run.Spec
	problem, algCfg, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(problem, algCfg)
	if err != nil {
		t.Fatal(err)
	}
	q := obs.NewQualitySampler(obs.QualityConfig{Ref: metrics.RefPointFor(problem.Name(), problem.NumObjs())})
	q.Attach(b)
	if _, err := master.Replay(log, master.ReplayConfig{
		Alg:       b,
		Evaluate:  evalFor(problem),
		OnQuality: func(seq uint64, at float64) { q.Sample(seq, at) },
	}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, st.ID+".archive.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveJSON(t, b), file) {
		t.Errorf("%s: replaying its log from its header disagrees with archive.json", st.ID)
	}
	if got, _ := q.Latest(); !sameSample(*final.Quality, got) {
		t.Errorf("replayed quality sample differs:\nlive   %+v\nreplay %+v", *final.Quality, got)
	}
}

// sameSample compares every field of two quality samples, floats by
// their bits.
func sameSample(w, g obs.QualitySample) bool {
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	return w.Seq == g.Seq && w.Evaluations == g.Evaluations && w.EpsProgress == g.EpsProgress &&
		w.ArchiveSize == g.ArchiveSize && w.PopulationSize == g.PopulationSize &&
		w.Restarts == g.Restarts && w.TournamentSize == g.TournamentSize &&
		bits([]float64{w.At, w.Hypervolume, w.FrontSpread}, []float64{g.At, g.Hypervolume, g.FrontSpread}) &&
		bits(w.OperatorProbs, g.OperatorProbs)
}

// TestResumeVersion1StateDir resumes testdata/v1-state, written by the
// scheduler before logs named their run: each job's spec is in its
// <id>.spec.json and its log, if any, is version 1. j000001 finished,
// j000002 was running when its server stopped (its log holds 402
// events) and j000003 was queued behind it (no log). Never regenerate
// these files with current code.
func TestResumeVersion1StateDir(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "v1-state"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "v1-state", e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	legacySpec := func(id string) *Spec {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, id+".spec.json"))
		if err != nil {
			t.Fatal(err)
		}
		var run master.RunHeader
		if err := json.Unmarshal(data, &run); err != nil {
			t.Fatal(err)
		}
		return run.Spec
	}
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 2 * time.Second, StateDir: dir, MaxActive: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]State{"j000001": StateDone, "j000002": StateRunning, "j000003": StateQueued}
	for id, state := range want {
		if st, err := s.Get(id); err != nil || st.State != state {
			t.Errorf("%s resumed as %+v, %v; want %s", id, st, err, state)
		}
	}
	archive, err := os.ReadFile(filepath.Join(dir, "j000001.archive.json"))
	if err != nil {
		t.Fatal(err)
	}
	if served, err := s.Result("j000001"); err != nil || !bytes.Equal(served, archive) {
		t.Errorf("finished job serves %d bytes (%v), not its %d-byte archive file", len(served), err, len(archive))
	}
	// The queued job now has a run record: a header-only log naming the
	// spec its spec file holds.
	queued := readLog(t, dir, "j000003")
	if len(queued.Events) != 0 || queued.Meta.Run == nil || !reflect.DeepEqual(queued.Meta.Run.Spec, legacySpec("j000003")) {
		t.Fatalf("queued job's log: %d events, header %+v", len(queued.Events), queued.Meta)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 2, s.FleetAddr(), stats.NewConstant(0.0005))
	waitJobs(t, s, 60*time.Second, func(st Status) bool { return st.State == StateDone })
	// The killed job's version-1 log grew by its continuation and still
	// replays, with the spec file's spec, to what the server serves; the
	// queued job's log replays from its own header.
	for id, spec := range map[string]*Spec{"j000002": legacySpec("j000002"), "j000003": readLog(t, dir, "j000003").Meta.Run.Spec} {
		_, b := replayFromFile(t, dir, id, spec)
		served, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(archiveJSON(t, b), served) {
			t.Errorf("%s: replaying its log disagrees with the served archive", id)
		}
	}
	if v := readLog(t, dir, "j000002").Meta.Run; v != nil {
		t.Errorf("the killed job's version-1 log gained a run header %+v", v)
	}
	st, err := s.Submit(&Spec{Problem: "ZDT1", Evaluations: 10})
	if err != nil || st.ID != "j000004" {
		t.Errorf("next submission is %q (%v), want j000004", st.ID, err)
	}
}

// TestResumeUnreadableRunRecord: a log whose header does not decode,
// with no spec file beside it, leaves a failed job behind, not a server
// that will not start.
func TestResumeUnreadableRunRecord(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j000001.bmel"), []byte("BMEL\x02garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{FleetListen: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st, err := s.Get("j000001"); err != nil || st.State != StateFailed || !strings.Contains(st.Error, "unreadable run record") {
		t.Fatalf("%+v, %v; want a failed job naming its unreadable run record", st, err)
	}
}
