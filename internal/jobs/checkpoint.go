package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/problems"
)

// Per-job files under Config.StateDir:
//
//	<id>.bmel          the run record: a header naming the spec, written
//	                   at accept time, then the streamed event log
//	<id>.archive.json  the final ε-archive (core.SaveArchive), written
//	                   once when the job ends, before its marker
//	<id>.final.json    terminal-state marker; present once the job ends
//
// A queued job is a log with no events. The BMEL stream is a running
// job's only checkpoint: resume replays it through the deterministic
// core against a freshly seeded Borg, recomputing each accepted
// Result's objectives, which lands the job in its exact pre-kill
// state. The archive file serves result queries once the job has ended.
// Older schedulers wrote <id>.spec.json, read when a log is version 1 or missing.

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

// create writes the job's run record: a streamed log's header, with no
// events yet.
func (c *ckpt) create(meta master.LogMeta) error {
	var buf bytes.Buffer
	if _, err := master.NewLogWriter(&buf, meta); err != nil {
		return err
	}
	return c.writeAtomic(c.path("bmel"), buf.Bytes())
}

// appendLog reopens l's stream, truncating any crash-torn partial
// record, and makes l's Sink append one record per event; l drops the
// events already on disk and retains none. Write errors are sticky on
// the LogWriter and surface at finalize.
func (c *ckpt) appendLog(l *master.Log) error {
	path := c.path("bmel")
	if err := os.Truncate(path, master.StreamLen(l.Meta, len(l.Events))); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	lw := master.ResumeLogWriter(f)
	c.logF, c.lw = f, lw
	l.Events = nil
	l.Sink = func(ev master.Event) { lw.Record(ev) } //nolint:errcheck // sticky, read at finalize
	return nil
}

// finalize is a terminal job's one write: its final archive (when it
// has a Borg), then the terminal marker, then the log stream closed.
// No marker is written without its archive. It returns the first
// durability error seen anywhere in the job's life.
func (c *ckpt) finalize(j *job) error {
	meta := restoredMeta{
		State:              j.state,
		Error:              j.errMsg,
		FirstResultSeconds: j.firstResult,
		FinishedSeconds:    j.finished,
	}
	if j.mcore != nil {
		meta.Evaluations = j.mcore.Completed()
	}
	var doc []byte
	var err error
	if b := j.borg; b != nil {
		meta.ArchiveSize = b.Archive().Size()
		if doc, err = core.AppendArchive(nil, b.Archive()); err == nil {
			err = c.writeAtomic(c.path("archive.json"), doc)
		}
	}
	if err == nil {
		if doc, err = json.MarshalIndent(meta, "", " "); err == nil {
			err = c.writeAtomic(c.path("final.json"), doc)
		}
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
	return func(it *master.Item) { core.EvaluateSolution(p, it.S) }
}

// resume loads every job persisted in StateDir: terminal jobs come
// back as queryable records, jobs with a recorded event stream replay
// to their pre-kill state and continue, and jobs that never started
// re-queue. Each job's log header names its spec. Runs before the
// fleet host serves, so it may touch loop-locked state freely.
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
		// An older scheduler's queued job has a spec file and no log.
		id, ok := strings.CutSuffix(e.Name(), ".bmel")
		if !ok {
			id, ok = strings.CutSuffix(e.Name(), ".spec.json")
		}
		if ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	ids = slices.Compact(ids)
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
	var meta master.LogMeta // a missing or unreadable log has no run header
	if f, err := os.Open(ck.path("bmel")); err == nil {
		if l, err := master.ReadLogHeader(f); err == nil {
			meta = l.Meta
		}
		f.Close()
	}
	var err error
	run := meta.Run
	if run == nil {
		// Written before logs named their run: the spec file holds it.
		run = &master.RunHeader{}
		var data []byte
		if data, err = os.ReadFile(ck.path("spec.json")); err == nil {
			err = json.Unmarshal(data, run)
		}
	}
	if run.Spec == nil {
		run.Spec = &master.Spec{} // no run record survives: the job is known by its id alone
		err = fmt.Errorf("unreadable run record: %v", err)
	}
	j := &job{
		id:          id,
		spec:        run.Spec,
		state:       StateQueued,
		workers:     make(map[uint64]struct{}),
		failed:      make(map[uint64]struct{}),
		submittedAt: run.SubmittedAt,
		submitted:   run.SubmittedSeconds,
		ck:          ck,
	}
	s.jobs[id] = j
	s.order = append(s.order, id)

	problem, algCfg, normErr := run.Spec.Normalize()
	if err == nil {
		err = normErr
	}
	if err != nil {
		// No readable run record, or a spec the registry no longer
		// accepts (drift across a binary upgrade): surface it as a
		// failed job, not a dead server.
		return s.restoreFailed(j, err.Error())
	}
	j.problem, j.name, j.algCfg = problem, problem.Name(), algCfg
	j.stride = strideOne / uint64(run.Spec.Priority)

	// Already terminal: a marker records the outcome; the archive file
	// serves result queries.
	if data, err := os.ReadFile(ck.path("final.json")); err == nil {
		var meta restoredMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return fmt.Errorf("corrupt final marker: %v", err)
		}
		j.state = meta.State
		j.errMsg = meta.Error
		j.firstResult = meta.FirstResultSeconds
		j.finished = meta.FinishedSeconds
		s.freeze(j)
		j.final.Evaluations, j.final.ArchiveSize = meta.Evaluations, meta.ArchiveSize
		s.advance(meta.FinishedSeconds)
		return nil
	}

	// No events: the job never ran. It re-queues on a header-only log,
	// which also gives an older scheduler's queued job a run record.
	if fi, err := os.Stat(ck.path("bmel")); err != nil || fi.Size() < master.StreamLen(meta, 1) {
		j.log = &master.Log{Meta: s.logMeta(j)}
		s.queue = append(s.queue, j)
		return ck.create(j.log.Meta)
	}
	return s.replayJob(j, ck)
}

// restoreFailed restores a job that cannot resume as failed with msg.
func (s *Scheduler) restoreFailed(j *job, msg string) error {
	j.state, j.errMsg = StateFailed, msg
	s.freeze(j)
	return nil
}

// replayJob rebuilds a killed-while-running job: read its BMEL stream,
// replay it through a fresh core and freshly seeded Borg (recomputing
// accepted Results — deterministic problems make this exact), then
// reattach the log so continued events append to the same stream, and
// declare the dead fleet's workers gone so their leases resubmit. A
// stream that stops decoding at some record replays the records before
// it, and the job ends failed with that prefix's archive.
func (s *Scheduler) replayJob(j *job, ck *ckpt) error {
	f, err := os.Open(ck.path("bmel"))
	if err != nil {
		return err
	}
	log, readErr := master.ReadLog(f)
	f.Close()
	if readErr != nil && (log == nil || len(log.Events) == 0) {
		return s.restoreFailed(j, fmt.Sprintf("unreadable checkpoint log: %v", readErr))
	}
	b, err := s.newBorg(j)
	if err != nil {
		return s.restoreFailed(j, err.Error())
	}
	j.borg = b
	j.adv = advisor.New(advisor.Config{})
	j.adv.Configure(0, j.spec.Evaluations)
	j.terms = s.newTerms(j)
	j.replaying = true
	rc := master.ReplayConfig{
		Alg:      j.terms.Bracket(b, nil),
		Evaluate: evalFor(j.problem),
		OnAccept: s.onAcceptHook(j),
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
		return s.restoreFailed(j, fmt.Sprintf("replay: %v", err))
	}
	j.mcore = mc

	// Continue the clock past the recorded run.
	last := log.Events[len(log.Events)-1].At
	s.advance(last)
	if readErr != nil || mc.Done() {
		// Corrupt past its prefix, or completed but the server died
		// before finalizing: either way the job ends here.
		j.state, j.finished = StateDone, last
		if readErr != nil {
			j.state = StateFailed
			j.errMsg = fmt.Sprintf("checkpoint log unreadable after %d events: %v", len(log.Events), readErr)
			s.cfg.logf("jobs: %s failed at %d evaluations: %s", j.id, mc.Completed(), j.errMsg)
		}
		err := ck.finalize(j)
		s.freeze(j)
		return err
	}

	// Keep fresh worker ids above every recorded one (redialing workers
	// reclaim theirs) and append continued events to the same stream.
	j.log = log
	for _, ev := range log.Events {
		s.sm.Reserve(uint64(ev.Worker))
	}

	if err := ck.appendLog(log); err != nil {
		return err
	}
	mc.AttachLog(log)
	s.setRunning(j)
	// The recorded workers' transport died with the old server; until
	// each is declared gone its leases would wait out their timeouts.
	for _, wid := range mc.LiveWorkers() {
		s.sm.Feed(j, master.Event{Kind: master.EvGone, Worker: wid, At: s.now()})
	}
	s.cfg.logf("jobs: %s resumed at %d/%d evaluations", j.id, mc.Completed(), j.spec.Evaluations)
	return nil
}
