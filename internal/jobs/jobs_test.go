package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// startWorkers launches n in-process borgd-equivalent workers dialing
// addr, with fast redial backoff so kill-and-restart tests reconnect
// promptly. A non-nil delay slows each evaluation (the paper's T_F).
func startWorkers(ctx context.Context, n int, addr string, delay stats.Distribution) {
	for i := 0; i < n; i++ {
		go func(seed uint64) {
			wire.RunWorker(ctx, wire.WorkerConfig{ //nolint:errcheck // ctx cancel ends it
				Addr:       addr,
				Backoff:    20 * time.Millisecond,
				MaxBackoff: 300 * time.Millisecond,
				Delay:      delay,
				Seed:       seed,
			})
		}(uint64(i + 1))
	}
}

// obsServe mounts the scheduler's API on a loopback debug server.
func obsServe(s *Scheduler) (*obs.DebugServer, error) {
	return obs.ServeDebug("127.0.0.1:0", nil, s.DebugOptions()...)
}

// httpDo runs one request and returns (status code, body).
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp.StatusCode, string(data)
}

func mustUnmarshal(t *testing.T, data string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(data), v); err != nil {
		t.Fatalf("unmarshal %.120q: %v", data, err)
	}
}

// waitJobs polls the scheduler until every listed job satisfies pred,
// failing the test at the deadline.
func waitJobs(t *testing.T, s *Scheduler, timeout time.Duration, pred func(Status) bool) []Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		list, err := s.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		all := len(list) > 0
		for _, st := range list {
			if !pred(st) {
				all = false
				break
			}
		}
		if all {
			return list
		}
		if time.Now().After(deadline) {
			for _, st := range list {
				t.Logf("job %s: state=%s evals=%d/%d workers=%d pending=%d", st.ID, st.State, st.Evaluations, st.Budget, st.Workers, st.Pending)
			}
			t.Fatalf("jobs not settled after %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSpecNormalize(t *testing.T) {
	bad := []Spec{
		{},                                   // no problem
		{Problem: "NOSUCH", Evaluations: 10}, // unknown problem
		{Problem: "ZDT1"},                    // no budget
		{Problem: "ZDT1", Evaluations: MaxEvaluations + 1},
		{Problem: "ZDT1", Evaluations: 10, Priority: -1},
		{Problem: "ZDT1", Evaluations: 10, Priority: MaxPriority + 1},
		{Problem: "ZDT1", Evaluations: 10, Population: 2},
		{Problem: "ZDT1", Evaluations: 10, Population: MaxPopulation + 1},
		{Problem: "ZDT1", Evaluations: 10, Epsilon: -0.1},
		{Problem: "ZDT1", Evaluations: 10, Epsilons: []float64{0.1}}, // 1 for 2 objs
		{Problem: "ZDT1", Evaluations: 10, Epsilons: []float64{0.1, math.NaN()}},
		{Problem: "ZDT1", Evaluations: 10, Epsilons: []float64{0.1, math.Inf(1)}},
		{Problem: "DTLZ2", Evaluations: 10}, // family without objective count
	}
	for i, spec := range bad {
		sp := spec
		if _, _, err := sp.Normalize(); err == nil {
			t.Errorf("spec %d (%+v): expected an error", i, spec)
		}
	}

	sp := Spec{Problem: "DTLZ2", Objectives: 5, Evaluations: 100}
	p, cfg, err := sp.Normalize()
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if p.Name() != "DTLZ2_5" {
		t.Errorf("resolved %s, want DTLZ2_5", p.Name())
	}
	if sp.Priority != 1 || sp.Seed != 1 {
		t.Errorf("defaults not filled: priority=%d seed=%d", sp.Priority, sp.Seed)
	}
	if len(cfg.Epsilons) != 5 || cfg.Epsilons[0] != DefaultEpsilon {
		t.Errorf("epsilon defaults wrong: %v", cfg.Epsilons)
	}
}

func TestDecodeSubmit(t *testing.T) {
	spec, err := DecodeSubmit(strings.NewReader(`{"problem":"ZDT1","evaluations":50,"priority":2}`))
	if err != nil {
		t.Fatalf("valid submission rejected: %v", err)
	}
	if spec.Problem != "ZDT1" || spec.Evaluations != 50 || spec.Priority != 2 {
		t.Errorf("decoded %+v", spec)
	}
	for name, body := range map[string]string{
		"unknown field": `{"problem":"ZDT1","evaluations":50,"bogus":1}`,
		"trailing data": `{"problem":"ZDT1","evaluations":50} extra`,
		"not json":      `problem=ZDT1`,
		"negative nfe":  `{"problem":"ZDT1","evaluations":-5}`,
		"huge number":   `{"problem":"ZDT1","evaluations":1e99}`,
		"oversized":     `{"problem":"` + strings.Repeat("a", MaxSubmitBytes) + `"}`,
	} {
		if _, err := DecodeSubmit(strings.NewReader(body)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestManyConcurrentJobsFairShare is the multi-tenancy acceptance
// test: 64 jobs share an 8-worker loopback fleet and all complete,
// with stride fair-share spreading first results across every job
// before any single job can finish — no starvation.
func TestManyConcurrentJobsFairShare(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	s, err := New(Config{
		FleetListen:  "127.0.0.1:0",
		LeaseTimeout: 5 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const jobsN = 64
	const budget = 30
	for i := 0; i < jobsN; i++ {
		spec := &Spec{Problem: "ZDT1", Evaluations: budget, Population: 8, Seed: uint64(i + 1)}
		if i%2 == 1 {
			spec.Problem = "DTLZ2"
			spec.Objectives = 3
		}
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 8, s.FleetAddr(), nil)

	list := waitJobs(t, s, 120*time.Second, func(st Status) bool { return st.State == StateDone })
	if len(list) != jobsN {
		t.Fatalf("listed %d jobs, want %d", len(list), jobsN)
	}
	var maxFirst, minFinished float64
	minFinished = math.Inf(1)
	for _, st := range list {
		if st.Evaluations != budget {
			t.Errorf("%s: %d evaluations, want %d", st.ID, st.Evaluations, budget)
		}
		if st.ArchiveSize == 0 {
			t.Errorf("%s: empty archive", st.ID)
		}
		if st.FirstResultSeconds == 0 || st.FinishedSeconds == 0 {
			t.Errorf("%s: missing timing (first=%v finished=%v)", st.ID, st.FirstResultSeconds, st.FinishedSeconds)
		}
		maxFirst = math.Max(maxFirst, st.FirstResultSeconds)
		minFinished = math.Min(minFinished, st.FinishedSeconds)
	}
	// Fair share: every job received its first accepted result before
	// any job was allowed to consume its whole budget. A starving
	// scheduler (FIFO job draining) fails this by construction.
	if maxFirst >= minFinished {
		t.Errorf("starvation: slowest first result at %.3fs, fastest completion at %.3fs", maxFirst, minFinished)
	}
}

// TestPriorityWeighting: a priority-4 job and a priority-1 job with
// equal budgets share a small fleet; the heavy one must finish first
// because it receives 4x the grants.
func TestPriorityWeighting(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const budget = 300
	high, err := s.Submit(&Spec{Problem: "ZDT1", Evaluations: budget, Population: 8, Priority: 4})
	if err != nil {
		t.Fatal(err)
	}
	low, err := s.Submit(&Spec{Problem: "ZDT1", Evaluations: budget, Population: 8, Priority: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 3, s.FleetAddr(), nil)

	waitJobs(t, s, 120*time.Second, func(st Status) bool { return st.State == StateDone })
	hs, _ := s.Get(high.ID)
	ls, _ := s.Get(low.ID)
	if hs.FinishedSeconds >= ls.FinishedSeconds {
		t.Errorf("priority 4 finished at %.3fs, after priority 1 at %.3fs", hs.FinishedSeconds, ls.FinishedSeconds)
	}
}

// TestBackpressureAndCancel exercises the bounded queue (429 path) and
// cancellation of queued and running jobs.
func TestBackpressureAndCancel(t *testing.T) {
	s, err := New(Config{
		FleetListen: "127.0.0.1:0",
		MaxActive:   1,
		MaxQueue:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := func(seed uint64) *Spec {
		return &Spec{Problem: "ZDT1", Evaluations: 1000, Population: 8, Seed: seed}
	}
	running, err := s.Submit(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	q1, err := s.Submit(spec(2))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Submit(spec(3))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Get(running.ID); st.State != StateRunning {
		t.Fatalf("first job %s, want running", st.State)
	}
	if st, _ := s.Get(q1.ID); st.State != StateQueued {
		t.Fatalf("second job %s, want queued", st.State)
	}
	if _, err := s.Submit(spec(4)); err != ErrOverloaded {
		t.Fatalf("overflow submit: %v, want ErrOverloaded", err)
	}

	// Cancelling a queued job frees its backlog slot.
	if err := s.Cancel(q1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec(5)); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	// Cancelling the running job promotes the next queued one.
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Get(q2.ID); st.State != StateRunning {
		t.Fatalf("promoted job %s, want running", st.State)
	}
	if st, _ := s.Get(running.ID); st.State != StateCancelled {
		t.Fatalf("cancelled job %s", st.State)
	}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatalf("cancel is not idempotent: %v", err)
	}
	if err := s.Cancel("j999999"); err != ErrNotFound {
		t.Fatalf("cancel of unknown job: %v, want ErrNotFound", err)
	}
}

// replayFromFile replays a persisted job checkpoint off-line and
// returns the reconstructed core and algorithm state — the test's
// independent implementation of what resume does.
func replayFromFile(t *testing.T, dir, id string, spec *Spec) (*master.Core, *core.Borg) {
	t.Helper()
	sp := *spec
	problem, algCfg, err := sp.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, id+".bmel"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := master.ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(problem, algCfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := master.Replay(log, master.ReplayConfig{
		Alg:      b,
		Evaluate: evalFor(problem),
	})
	if err != nil {
		t.Fatalf("replay %s: %v", id, err)
	}
	return mc, b
}

// archiveJSON serializes an archive the way the result endpoint does.
func archiveJSON(t *testing.T, b *core.Borg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveArchive(&buf, b.Archive()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKillAndRestartResume is the durability acceptance test: kill a
// scheduler mid-run, verify the persisted BMEL streams replay
// deterministically to the pre-kill state, restart on the same fleet
// address, and watch the resumed jobs run to completion — with the
// final archive identical to an independent replay of the full log.
func TestKillAndRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	cfg := Config{
		FleetListener:   ln,
		LeaseTimeout:    2 * time.Second,
		StateDir:        dir,
		CheckpointEvery: 50,
		Logf:            t.Logf,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	specs := []*Spec{
		{Problem: "ZDT1", Evaluations: 2000, Population: 16, Seed: 7},
		{Problem: "DTLZ2", Objectives: 5, Evaluations: 1500, Population: 16, Seed: 11},
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := s1.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	// Workers outlive the scheduler: they redial until a new one binds
	// the same address — the restart story borgd already implements.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 3, addr, stats.NewConstant(0.002))

	waitJobs(t, s1, 120*time.Second, func(st Status) bool {
		return st.Evaluations >= 200
	})
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The persisted event logs replay deterministically: two
	// independent replays agree exactly, both on protocol state and on
	// the reconstructed archive.
	preKill := make(map[string]uint64)
	for i, id := range ids {
		mc1, b1 := replayFromFile(t, dir, id, specs[i])
		mc2, b2 := replayFromFile(t, dir, id, specs[i])
		if mc1.Completed() != mc2.Completed() {
			t.Fatalf("%s: replays disagree on completed (%d vs %d)", id, mc1.Completed(), mc2.Completed())
		}
		if mc1.Completed() < 200 {
			t.Errorf("%s: replayed only %d evaluations, want >= 200", id, mc1.Completed())
		}
		if !bytes.Equal(archiveJSON(t, b1), archiveJSON(t, b2)) {
			t.Fatalf("%s: replays disagree on the archive", id)
		}
		preKill[id] = mc1.Completed()
	}

	// Restart on the same address; resumed jobs continue where the
	// replay left them.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FleetListener = ln2
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	list, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ids) {
		t.Fatalf("resumed %d jobs, want %d", len(list), len(ids))
	}
	for _, st := range list {
		if st.State != StateRunning {
			t.Errorf("%s resumed as %s, want running", st.ID, st.State)
		}
		if st.Evaluations < preKill[st.ID] {
			t.Errorf("%s resumed at %d evaluations, pre-kill log had %d", st.ID, st.Evaluations, preKill[st.ID])
		}
	}

	waitJobs(t, s2, 120*time.Second, func(st Status) bool { return st.State == StateDone })
	for i, id := range ids {
		st, err := s2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Evaluations != specs[i].Evaluations {
			t.Errorf("%s finished with %d evaluations, want %d", id, st.Evaluations, specs[i].Evaluations)
		}
		// The full post-restart log — recorded prefix plus appended
		// continuation — replays to exactly the archive the server
		// serves: one coherent history across the kill.
		_, b := replayFromFile(t, dir, id, specs[i])
		served, err := s2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(archiveJSON(t, b), served) {
			t.Errorf("%s: full-log replay and served result disagree", id)
		}
	}
}

// TestResumeQueuedAndTerminal: jobs that never started re-queue on
// restart, and terminal jobs come back queryable with their results.
func TestResumeQueuedAndTerminal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{FleetListen: "127.0.0.1:0", StateDir: dir, MaxActive: 1}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No workers: the first job runs (idle), the second stays queued.
	a, err := s1.Submit(&Spec{Problem: "ZDT1", Evaluations: 100, Population: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.Submit(&Spec{Problem: "ZDT1", Evaluations: 100, Population: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sa, err := s2.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sa.State != StateCancelled {
		t.Errorf("cancelled job resumed as %s", sa.State)
	}
	sb, err := s2.Get(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The queued job re-queues and (with a free active slot) starts.
	if sb.State != StateQueued && sb.State != StateRunning {
		t.Errorf("queued job resumed as %s", sb.State)
	}
	// A third submission keeps monotone ids (no reuse after restart).
	c, err := s2.Submit(&Spec{Problem: "ZDT1", Evaluations: 100, Population: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID <= b.ID {
		t.Errorf("id %s not above resumed %s", c.ID, b.ID)
	}
}

// TestHTTPAPI drives the full stack over loopback HTTP: submit, list,
// status, watch, result, cancel, scaling, and the readiness flip on
// shutdown.
func TestHTTPAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := obsServe(s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 2, s.FleetAddr(), nil)

	// Bad submissions are 400s.
	if code, _ := httpDo(t, "POST", base+"/jobs", `{"problem":"NOSUCH","evaluations":10}`); code != 400 {
		t.Errorf("bad problem: HTTP %d, want 400", code)
	}
	if code, _ := httpDo(t, "POST", base+"/jobs", `{"bogus":true}`); code != 400 {
		t.Errorf("unknown field: HTTP %d, want 400", code)
	}

	code, body := httpDo(t, "POST", base+"/jobs", `{"problem":"ZDT1","evaluations":40,"population":8}`)
	if code != 201 {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	var st Status
	mustUnmarshal(t, body, &st)
	id := st.ID

	// Watch streams JSONL until the job completes.
	code, body = httpDo(t, "GET", base+"/jobs/"+id+"/watch?interval=100ms", "")
	if code != 200 {
		t.Fatalf("watch: HTTP %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var last Status
	mustUnmarshal(t, lines[len(lines)-1], &last)
	if last.State != StateDone || last.Evaluations != 40 {
		t.Fatalf("watch final state: %+v", last)
	}

	// Status includes the advisor report.
	code, body = httpDo(t, "GET", base+"/jobs/"+id, "")
	if code != 200 || !strings.Contains(body, "\"advisor\"") {
		t.Errorf("status: HTTP %d, advisor present=%v", code, strings.Contains(body, "\"advisor\""))
	}
	if code, _ := httpDo(t, "GET", base+"/jobs/nope", ""); code != 404 {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}

	// The result endpoint serves loadable archive JSON.
	code, body = httpDo(t, "GET", base+"/jobs/"+id+"/result", "")
	if code != 200 {
		t.Fatalf("result: HTTP %d", code)
	}
	arch, err := core.LoadArchive(strings.NewReader(body), 0)
	if err != nil {
		t.Fatalf("result not a loadable archive: %v", err)
	}
	if arch.Size() == 0 {
		t.Error("result archive empty")
	}

	// Per-job scaling report, in the single-run schema.
	code, body = httpDo(t, "GET", base+"/debug/scaling?job="+id, "")
	if code != 200 || !strings.Contains(body, "predicted") {
		t.Errorf("scaling?job: HTTP %d body %.80s", code, body)
	}
	code, body = httpDo(t, "GET", base+"/debug/scaling", "")
	if code != 200 || !strings.Contains(body, id) {
		t.Errorf("scaling map: HTTP %d", code)
	}

	// Cancel a fresh job over HTTP.
	code, body = httpDo(t, "POST", base+"/jobs", `{"problem":"ZDT1","evaluations":100000,"population":8,"seed":9}`)
	if code != 201 {
		t.Fatalf("second submit: HTTP %d", code)
	}
	var st2 Status
	mustUnmarshal(t, body, &st2)
	if code, _ = httpDo(t, "DELETE", base+"/jobs/"+st2.ID, ""); code != 200 {
		t.Errorf("cancel: HTTP %d", code)
	}

	// Liveness stays green while readiness flips on drain.
	if code, _ := httpDo(t, "GET", base+"/readyz", ""); code != 200 {
		t.Fatalf("readyz before drain: HTTP %d", code)
	}
	s.Close()
	if code, _ := httpDo(t, "GET", base+"/readyz", ""); code != 503 {
		t.Errorf("readyz after close: HTTP %d, want 503", code)
	}
	if code, _ := httpDo(t, "GET", base+"/healthz", ""); code != 200 {
		t.Errorf("healthz after close: HTTP %d, want 200", code)
	}
	if code, _ := httpDo(t, "POST", base+"/jobs", `{"problem":"ZDT1","evaluations":10}`); code != 503 {
		t.Errorf("submit after close: HTTP %d, want 503", code)
	}
}

// TestMultiProblemFleetPartialCapability: a worker that cannot
// evaluate a job's problem fails that job's lease, not the session —
// the job still completes on capable workers, and the limited worker
// keeps serving other jobs.
func TestMultiProblemFleetPartialCapability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	s, err := New(Config{FleetListen: "127.0.0.1:0", LeaseTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One full worker and one that only knows ZDT1.
	startWorkers(ctx, 1, s.FleetAddr(), nil)
	go func() {
		wire.RunWorker(ctx, wire.WorkerConfig{ //nolint:errcheck
			Addr:       s.FleetAddr(),
			Backoff:    20 * time.Millisecond,
			MaxBackoff: 300 * time.Millisecond,
			Resolve: func(name string) (problems.Problem, error) {
				if name != "ZDT1" {
					return nil, fmt.Errorf("not in this worker's registry: %s", name)
				}
				return problems.ByName("ZDT1")
			},
		})
	}()

	zdt, err := s.Submit(&Spec{Problem: "ZDT1", Evaluations: 60, Population: 8})
	if err != nil {
		t.Fatal(err)
	}
	dtlz, err := s.Submit(&Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 60, Population: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitJobs(t, s, 120*time.Second, func(st Status) bool { return st.State == StateDone })
	for _, id := range []string{zdt.ID, dtlz.ID} {
		st, _ := s.Get(id)
		if st.Evaluations != 60 {
			t.Errorf("%s: %d evaluations, want 60", id, st.Evaluations)
		}
	}
}

// TestResultConstraintCountChecked: a worker whose result carries
// constraint violations the job's problem does not have fails that
// lease like a worker that cannot evaluate the problem — the
// violations are never folded into the solution — and the job
// completes on a well-behaved worker.
func TestResultConstraintCountChecked(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{FleetListen: "127.0.0.1:0", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A hand-rolled worker: right objective count, one spurious violation.
	c, _, err := wire.Dial(s.FleetAddr(), wire.Hello{}, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if ev, ok := m.(*wire.Evaluate); ok {
				c.Send(&wire.Result{Lease: ev.Lease, SolID: ev.SolID, Operator: ev.Operator, Objs: []float64{0, 0}, Constrs: []float64{1}}) //nolint:errcheck
			}
		}
	}()
	const budget = 40
	job, err := s.Submit(&Spec{Problem: "ZDT1", Evaluations: budget, Population: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	failures := reg.Counter(MetricEvalFailures)
	for deadline := time.Now().Add(10 * time.Second); failures.Value() == 0; time.Sleep(time.Millisecond) {
		if st, _ := s.Get(job.ID); st.Evaluations > 0 {
			t.Fatalf("a result with 1 constraint violation for unconstrained %s was accepted", st.Problem)
		}
		if time.Now().After(deadline) {
			t.Fatal("the misshapen result was neither accepted nor failed within 10s")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorkers(ctx, 1, s.FleetAddr(), nil)
	waitJobs(t, s, 30*time.Second, func(st Status) bool { return st.State == StateDone })
	if st, _ := s.Get(job.ID); st.Evaluations != budget {
		t.Fatalf("%d evaluations, want %d", st.Evaluations, budget)
	}
	if n := failures.Value(); n != 1 {
		t.Fatalf("%d failed evaluations, want the one misshapen result", n)
	}
}
