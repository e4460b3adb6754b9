package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/problems"
)

// Per-job files under Config.StateDir:
//
//	<id>.spec.json     the submission, written once at accept time
//	<id>.bmel          the streamed master event log (append-only)
//	<id>.archive.json  the latest ε-archive snapshot (core.SaveArchive)
//	<id>.final.json    terminal-state marker; present once the job ends
//
// The BMEL stream is the source of truth for a running job: resume
// replays it through the deterministic core against a freshly seeded
// Borg, recomputing each accepted Result's objectives, which lands the
// job in its exact pre-kill state. The archive snapshot is what result
// queries serve after the job (or the server) is gone.

// specFile wraps the submission with its accept-time stamps.
type specFile struct {
	Spec             *Spec     `json:"spec"`
	SubmittedAt      time.Time `json:"submitted_at"`
	SubmittedSeconds float64   `json:"submitted_seconds"`
}

// restoredMeta is the terminal-state marker (<id>.final.json).
type restoredMeta struct {
	State              State   `json:"state"`
	Error              string  `json:"error,omitempty"`
	Evaluations        uint64  `json:"evaluations"`
	ArchiveSize        int     `json:"archive_size"`
	FirstResultSeconds float64 `json:"first_result_seconds,omitempty"`
	FinishedSeconds    float64 `json:"finished_seconds,omitempty"`
}

// ckpt owns one job's on-disk state.
type ckpt struct {
	dir, id string
	logF    *os.File
	lw      *master.LogWriter
}

func newCkpt(dir, id string) (*ckpt, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	return &ckpt{dir: dir, id: id}, nil
}

func (c *ckpt) path(ext string) string {
	return filepath.Join(c.dir, c.id+"."+ext)
}

// writeAtomic writes via tmp+rename so readers (and crashes) never see
// a half-written file.
func (c *ckpt) writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (c *ckpt) writeSpec(spec *Spec, wall time.Time, at float64) error {
	data, err := json.MarshalIndent(specFile{Spec: spec, SubmittedAt: wall, SubmittedSeconds: at}, "", " ")
	if err != nil {
		return err
	}
	return c.writeAtomic(c.path("spec.json"), data)
}

// openLog starts a fresh checkpoint stream for l: header now, one
// record per event as the core handles it. Write errors are sticky on
// the LogWriter and surface at finalize — a run does not stop because
// its durability did.
func (c *ckpt) openLog(l *master.Log) error {
	f, err := os.Create(c.path("bmel"))
	if err != nil {
		return err
	}
	lw, err := master.NewLogWriter(f, l.Meta)
	if err != nil {
		f.Close()
		return err
	}
	c.logF, c.lw = f, lw
	l.OnRecord = func(ev master.Event) { lw.Record(ev) } //nolint:errcheck // sticky, read at finalize
	return nil
}

// resumeLog reopens the stream l was read from: any crash-torn partial
// record is truncated away, and appended events continue the same
// replayable stream.
func (c *ckpt) resumeLog(l *master.Log) error {
	path := c.path("bmel")
	if err := os.Truncate(path, master.StreamLen(len(l.Events))); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	c.logF, c.lw = f, master.ResumeLogWriter(f)
	l.OnRecord = func(ev master.Event) { c.lw.Record(ev) } //nolint:errcheck // sticky, read at finalize
	return nil
}

func (c *ckpt) saveArchive(a *core.Archive) error {
	var buf strings.Builder
	if err := core.SaveArchive(&buf, a); err != nil {
		return err
	}
	return c.writeAtomic(c.path("archive.json"), []byte(buf.String()))
}

// finalize writes the terminal marker and closes the log stream. It
// returns the first durability error seen anywhere in the job's life.
func (c *ckpt) finalize(j *job, now float64) error {
	meta := restoredMeta{
		State:              j.state,
		Error:              j.errMsg,
		FirstResultSeconds: j.firstResult,
		FinishedSeconds:    j.finished,
	}
	if j.mcore != nil {
		meta.Evaluations = j.mcore.Completed()
	}
	if j.borg != nil {
		meta.ArchiveSize = j.borg.Archive().Size()
	}
	data, err := json.MarshalIndent(meta, "", " ")
	if err == nil {
		err = c.writeAtomic(c.path("final.json"), data)
	}
	if werr := c.close(); err == nil {
		err = werr
	}
	return err
}

// close flushes and closes the log stream, reporting any sticky write
// error.
func (c *ckpt) close() error {
	var err error
	if c.lw != nil {
		err = c.lw.Err()
		c.lw = nil
	}
	if c.logF != nil {
		if cerr := c.logF.Close(); err == nil {
			err = cerr
		}
		c.logF = nil
	}
	return err
}

// evalFor is the replay stand-in for a worker's evaluation: identical
// objectives for deterministic problems, so the replayed trajectory is
// bit-identical to the recorded run's.
func evalFor(p problems.Problem) func(*master.Item) {
	if cp, ok := p.(problems.Constrained); ok {
		return func(it *master.Item) {
			it.S.Objs = make([]float64, cp.NumObjs())
			it.S.Constrs = make([]float64, cp.NumConstraints())
			cp.EvaluateWithConstraints(it.S.Vars, it.S.Objs, it.S.Constrs)
		}
	}
	return func(it *master.Item) {
		it.S.Objs = make([]float64, p.NumObjs())
		p.Evaluate(it.S.Vars, it.S.Objs)
	}
}

// resume loads every job persisted in StateDir: terminal jobs come
// back as queryable records, jobs with a recorded event stream replay
// to their pre-kill state and continue, and jobs that never started
// re-queue. Runs before the fleet host serves, so it may touch
// loop-locked state freely.
func (s *Scheduler) resume() error {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("jobs: state dir: %w", err)
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("jobs: reading state dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".spec.json") {
			ids = append(ids, strings.TrimSuffix(name, ".spec.json"))
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		var n uint64
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > s.nextJob {
			s.nextJob = n
		}
		if err := s.resumeJob(id); err != nil {
			return fmt.Errorf("jobs: resuming %s: %w", id, err)
		}
	}
	if len(ids) > 0 {
		s.cfg.logf("jobs: resumed %d persisted jobs from %s", len(ids), s.cfg.StateDir)
	}
	return nil
}

func (s *Scheduler) resumeJob(id string) error {
	ck := &ckpt{dir: s.cfg.StateDir, id: id}
	data, err := os.ReadFile(ck.path("spec.json"))
	if err != nil {
		return err
	}
	var sf specFile
	if err := json.Unmarshal(data, &sf); err != nil || sf.Spec == nil {
		return fmt.Errorf("corrupt spec file: %v", err)
	}
	j := &job{
		id:            id,
		spec:          sf.Spec,
		state:         StateQueued,
		workers:       make(map[uint64]struct{}),
		failed:        make(map[uint64]struct{}),
		submittedWall: sf.SubmittedAt,
		submitted:     sf.SubmittedSeconds,
		ck:            ck,
	}
	s.jobs[id] = j
	s.order = append(s.order, id)

	problem, algCfg, err := sf.Spec.Normalize()
	if err != nil {
		// The registry no longer accepts this spec (drift across a
		// binary upgrade): surface it as a failed job, not a dead
		// server.
		j.state = StateFailed
		j.errMsg = err.Error()
		return nil
	}
	j.problem, j.algCfg = problem, algCfg
	j.stride = strideOne / uint64(sf.Spec.Priority)

	// Already terminal: a marker records the outcome; the archive
	// snapshot serves result queries.
	if data, err := os.ReadFile(ck.path("final.json")); err == nil {
		var meta restoredMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return fmt.Errorf("corrupt final marker: %v", err)
		}
		j.state = meta.State
		j.errMsg = meta.Error
		j.firstResult = meta.FirstResultSeconds
		j.finished = meta.FinishedSeconds
		j.restored = &meta
		if meta.FinishedSeconds > s.clockOff {
			s.clockOff = meta.FinishedSeconds
		}
		return nil
	}

	// No event stream (or an empty one): the job never ran; re-queue.
	if fi, err := os.Stat(ck.path("bmel")); err != nil || fi.Size() < master.StreamLen(1) {
		s.queue = append(s.queue, j)
		return nil
	}
	return s.replayJob(j, ck)
}

// replayJob rebuilds a killed-while-running job: read its BMEL stream,
// replay it through a fresh core and freshly seeded Borg (recomputing
// accepted Results — deterministic problems make this exact), then
// reattach the log so continued events append to the same stream, and
// declare the dead fleet's workers gone so their leases resubmit.
func (s *Scheduler) replayJob(j *job, ck *ckpt) error {
	f, err := os.Open(ck.path("bmel"))
	if err != nil {
		return err
	}
	log, err := master.ReadLog(f)
	f.Close()
	if err != nil {
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("unreadable checkpoint log: %v", err)
		return nil
	}
	b, err := core.New(j.problem, j.algCfg)
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		return nil
	}
	j.borg = b
	j.adv = advisor.New(advisor.Config{})
	j.adv.Configure(0, j.spec.Evaluations)
	j.replaying = true
	rc := master.ReplayConfig{
		Alg:          j.alg(b),
		Evaluate:     evalFor(j.problem),
		OnAccept:     s.onAcceptHook(j),
		OnAcceptFrom: s.onAcceptFromHook(j),
	}
	if q := newJobQuality(j); q != nil {
		// Recorded EvQuality points re-trigger sampling against the
		// replayed algorithm: the restored job's quality timeline (and
		// its stall detector) continue where the dead server's left off.
		q.Attach(b)
		rc.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
	mc, err := master.Replay(log, rc)
	j.replaying = false
	if err != nil {
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("replay: %v", err)
		return nil
	}
	j.mcore = mc
	j.log = log

	// Continue the clock past the recorded run and keep fresh worker
	// ids above every recorded one (redialing workers reclaim theirs).
	last := log.Events[len(log.Events)-1].At
	if last > s.clockOff {
		s.clockOff = last
	}
	for _, ev := range log.Events {
		s.host.Reserve(uint64(ev.Worker))
	}

	if err := ck.resumeLog(log); err != nil {
		return err
	}
	mc.AttachLog(log)

	if mc.Done() {
		// Completed, but the server died before finalizing.
		j.state = StateDone
		j.finished = last
		if err := ck.saveArchive(b.Archive()); err != nil {
			return err
		}
		return ck.finalize(j, last)
	}

	j.state = StateRunning
	s.active++
	// The recorded workers' transport died with the old server; until
	// each is declared gone its leases would wait out their timeouts.
	for _, wid := range mc.LiveWorkers() {
		s.exec(j, mc.Handle(master.Event{Kind: master.EvGone, Worker: wid, At: s.now()}))
	}
	s.cfg.logf("jobs: %s resumed at %d/%d evaluations", j.id, mc.Completed(), j.spec.Evaluations)
	return nil
}
