package jobs

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/wire"
)

// Scheduler metric names, registered on Config.Metrics.
const (
	MetricSubmitted    = "jobs.submitted_total"
	MetricRejected     = "jobs.rejected_total"
	MetricCompleted    = "jobs.completed_total"
	MetricCancelled    = "jobs.cancelled_total"
	MetricFailed       = "jobs.failed_total"
	MetricEvals        = "jobs.evals_total"
	MetricEvalFailures = "jobs.eval_failures_total"
	MetricActive       = "jobs.active"
	MetricQueued       = "jobs.queued"
	MetricWorkers      = "jobs.workers"
	MetricFirstResult  = "jobs.first_result_seconds"
)

// API errors, mapped to HTTP statuses by internal/httpd's job API.
var (
	// ErrOverloaded: the queued-job backlog is at Config.MaxQueue
	// (HTTP 429) — the service's backpressure signal.
	ErrOverloaded = errors.New("jobs: queue full")
	// ErrDraining: the scheduler is shutting down (HTTP 503).
	ErrDraining = errors.New("jobs: draining")
	// ErrNotFound: no such job id (HTTP 404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrClosed: the scheduler has stopped.
	ErrClosed = errors.New("jobs: scheduler closed")
)

// Config parameterizes a Scheduler.
type Config struct {
	// FleetListen is the address borgd workers dial ("":0" picks a
	// port); FleetListener overrides it with a bound listener.
	FleetListen   string
	FleetListener net.Listener
	// Conn tunes the fleet connections (heartbeats, timeouts, wire
	// metrics).
	Conn wire.Options
	// LeaseTimeout bounds one evaluation lease (default 30s).
	LeaseTimeout time.Duration
	// MaxQueue bounds jobs accepted but not yet running; Submit past
	// it returns ErrOverloaded (default 1024).
	MaxQueue int
	// MaxActive bounds simultaneously running jobs (0 = unlimited).
	// Beyond it, submissions queue.
	MaxActive int
	// StateDir, when set, persists every job — spec at submission, a
	// streamed BMEL event log while running, the final archive once it
	// ends — and resumes whatever it finds there on startup. Empty
	// disables persistence.
	StateDir string
	// Metrics receives the scheduler's counters and gauges.
	Metrics *obs.Registry
	// TraceRate, when positive, gives every job its own distributed-
	// trace collector sampling evaluations at this rate (1 = every
	// evaluation; see internal/obs). Advisor-flagged stragglers are
	// always traced. Collectors are reachable via Traces.
	TraceRate float64
	// Logf, when set, receives lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// strideOne is the stride-scheduling numerator: a job's stride is
// strideOne / priority, so a priority-p job accumulates pass p times
// slower and receives p times the grants of a priority-1 job.
const strideOne = 1 << 20

// job is the scheduler's per-run state, and its lane on the fleet's
// socket master. All fields are guarded by the master's loop lock.
//
// A running job holds its algorithm: borg, mcore, adv, terms and
// quality; the action that completes its core ends it, so a running
// job's core is never done. A terminal one is frozen (see freeze): it
// holds its final Status and advisor report, and its archive document
// in result unless its archive file serves it. A job restored from its
// terminal marker is frozen from the start.
type job struct {
	id      string
	spec    *Spec
	problem problems.Problem
	name    string // problem.Name(), the wire name every grant carries
	algCfg  core.Config

	state  State
	errMsg string

	borg    *core.Borg
	mcore   *master.Core
	log     *master.Log // nil without StateDir; streams to ck, retaining no events
	adv     *advisor.Advisor
	trace   *obs.Collector      // nil unless Config.TraceRate > 0
	terms   *master.Terms       // the job's meter over adv, trace and the scheduler's timing histograms
	quality *obs.QualitySampler // nil unless Spec.QualityEvery > 0
	ck      *ckpt               // nil without StateDir

	final  *Status         // frozen Status of a terminal job (Advisor unset); nil while it can still change
	report *advisor.Report // a frozen job's last advisor report; nil if it never ran
	result []byte          // a frozen job's archive document, when no archive file holds it

	// stride scheduling: next pass value and per-grant increment.
	pass, stride uint64

	// workers currently assigned to this job's core; failed holds
	// fleet workers that could not evaluate this problem (missing
	// locally, dimension drift) and must not be offered it again.
	workers map[uint64]struct{}
	failed  map[uint64]struct{}

	submittedAt string  // RFC3339Nano wall time, formatted once
	submitted   float64 // scheduler-clock seconds
	firstResult float64
	finished    float64

	replaying bool // replayed accepts feed no live metric
}

// Lane makes a job one lane of the fleet's socket master.
func (j *job) Lane() (*master.Core, *master.Terms, *obs.QualitySampler) {
	return j.mcore, j.terms, j.quality
}

// wantWork reports whether the job's core would grant an evaluation to
// a newly offered worker: it has resubmitted work pending, or head
// room under the budget for a fresh offspring chain.
func (j *job) wantWork() bool {
	c := j.mcore
	return j.state == StateRunning && (c.PendingLen() > 0 ||
		c.Completed()+uint64(c.Outstanding())+uint64(c.PendingLen()) < j.spec.Evaluations)
}

// fleetWorker is the scheduling state of one live borgd session. Probe
// grants to a suspect worker can pipeline, so its outstanding wire
// leases are a small map, each to the core lease it stands for in
// held's core: a worker changes jobs only with no lease in flight.
type fleetWorker struct {
	sess   *wire.Session
	job    *job // current assignment (nil = unassigned)
	held   *job // the job whose leases it holds
	leases map[uint64]uint64
}

// Scheduler owns the shared borgd fleet and multiplexes every
// submitted job over it: one ScheduledOffspring master.Core per active
// job, stride-scheduled fair sharing at per-evaluation granularity,
// and per-job checkpoint streams. The fleet is served by a
// federation.SocketMaster with the scheduler as its Router, so all
// scheduling state lives under the master's loop lock: fleet events
// and lease ticks arrive through the router's methods, and the public
// methods enter through do.
type Scheduler struct {
	cfg Config
	ln  net.Listener
	sm  federation.SocketMaster // the fleet's master; New serves it

	draining atomic.Bool

	// metrics
	mSubmitted, mRejected, mCompleted, mCancelled, mFailed *obs.Counter
	mEvals, mEvalFailures                                  *obs.Counter
	gActive, gQueued, gWorkers                             *obs.Gauge
	hFirstResult                                           *obs.Histogram
	// timing holds the four histograms every master reports its terms
	// to, under the shared names; each job's meter feeds them.
	timing master.Meters

	// --- loop-locked state below ---
	closed        bool // Close has run shutdown: nothing else may
	jobs          map[string]*job
	order         []string // submission order
	queue         []*job
	active        int
	fleet         map[uint64]*fleetWorker // live sessions by worker id
	nextWireLease uint64
	nextJob       uint64
	// spares are frozen jobs' Borgs, which the next jobs start on; there
	// are never more than peakActive, the most jobs that ran at once.
	spares     []*core.Borg
	peakActive int
	// encBuf is the scratch a frozen job's archive document is encoded
	// into before it is copied out at its size.
	encBuf []byte
}

// New binds the fleet listener, resumes any jobs persisted in
// Config.StateDir, and starts the scheduler.
func New(cfg Config) (*Scheduler, error) {
	ln := cfg.FleetListener
	if ln == nil {
		if cfg.FleetListen == "" {
			return nil, errors.New("jobs: scheduler needs a fleet listen address or listener")
		}
		var err error
		ln, err = net.Listen("tcp", cfg.FleetListen)
		if err != nil {
			return nil, fmt.Errorf("jobs: fleet listen: %w", err)
		}
	}
	if cfg.LeaseTimeout == 0 {
		cfg.LeaseTimeout = 30 * time.Second
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 1024
	}
	reg := cfg.Metrics
	s := &Scheduler{
		cfg: cfg,
		ln:  ln,
		sm:  federation.SocketMaster{Start: time.Now(), LeaseTimeout: cfg.LeaseTimeout, Name: "jobs", Logf: cfg.Logf},

		mSubmitted:    reg.Counter(MetricSubmitted),
		mRejected:     reg.Counter(MetricRejected),
		mCompleted:    reg.Counter(MetricCompleted),
		mCancelled:    reg.Counter(MetricCancelled),
		mFailed:       reg.Counter(MetricFailed),
		mEvals:        reg.Counter(MetricEvals),
		mEvalFailures: reg.Counter(MetricEvalFailures),
		gActive:       reg.Gauge(MetricActive),
		gQueued:       reg.Gauge(MetricQueued),
		gWorkers:      reg.Gauge(MetricWorkers),
		hFirstResult:  reg.Histogram(MetricFirstResult, nil),
		timing: master.Meters{
			TA: reg.Histogram(master.MetricTA, nil), TF: reg.Histogram(master.MetricTF, nil),
			TC: reg.Histogram(master.MetricTC, nil), QueueWait: reg.Histogram(master.MetricQueueWait, nil),
		},

		jobs:  make(map[string]*job),
		fleet: make(map[uint64]*fleetWorker),
	}
	if cfg.StateDir != "" {
		if err := s.resume(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	s.sm.Serve(router{s}, ln, cfg.Conn)
	return s, nil
}

// FleetAddr returns the bound fleet listener address (useful with
// ":0").
func (s *Scheduler) FleetAddr() string { return s.ln.Addr().String() }

// Ready is the /readyz check: an error while draining or stopped.
func (s *Scheduler) Ready() error {
	if s.draining.Load() {
		return ErrDraining
	}
	return nil
}

// now returns seconds on the scheduler clock, which is its fleet
// master's. The clock survives restarts: resume() advances it past the
// last persisted event so appended log timestamps stay monotone.
func (s *Scheduler) now() float64 { return time.Since(s.sm.Start).Seconds() }

// advance moves the clock's origin back, if need be, so it reads at
// least at (the nanosecond it adds makes up for the truncation).
func (s *Scheduler) advance(at float64) {
	if d := at - s.now(); d > 0 {
		s.sm.Start = s.sm.Start.Add(-time.Duration(d*float64(time.Second)) - 1)
	}
}

// Close stops the scheduler: the fleet listener closes, all worker
// connections drop without a Stop — the fleet outlives any one server,
// so workers back off and redial until a new scheduler binds the port —
// and every running job's event log closes. Queued and running jobs
// resume from StateDir on the next New.
func (s *Scheduler) Close() error {
	s.draining.Store(true)
	s.sm.Close()
	s.do(s.shutdown) //nolint:errcheck // best effort once closed
	return nil
}

// do runs fn under the loop lock, unless the scheduler has closed.
func (s *Scheduler) do(fn func()) error {
	err := ErrClosed
	s.sm.Do(func() {
		if !s.closed {
			fn()
			s.updateGauges()
			err = nil
		}
	})
	return err
}

// --- the fleet's router ---------------------------------------------

// router is the scheduler as its socket master's federation.Router.
type router struct{ *Scheduler }

func (s *Scheduler) updateGauges() {
	s.gActive.Set(float64(s.active))
	s.gQueued.Set(float64(len(s.queue)))
	s.gWorkers.Set(float64(len(s.fleet)))
}

// Assign offers a worker that joined, or whose result was just handled,
// to the job it should work for.
func (r router) Assign(sess *wire.Session) {
	w := r.fleet[sess.ID]
	if w == nil {
		w = &fleetWorker{sess: sess, leases: make(map[uint64]uint64)}
		r.fleet[sess.ID] = w
	}
	r.assign(w)
	r.updateGauges()
}

// Retire forgets a session the master dropped: the job it worked for
// — its assignment, or the job of the leases it still holds — sees
// EvGone, resubmitting the work.
func (r router) Retire(sess *wire.Session) {
	w := r.fleet[sess.ID]
	delete(r.fleet, sess.ID)
	j := w.job
	if len(w.leases) > 0 {
		j = w.held
	}
	if j != nil {
		r.detach(w, j, master.EvGone)
	}
	r.updateGauges()
}

// detach removes w from j, whose core hears kind: EvLeave when the
// scheduler lends w to another job, EvGone when w died or cannot
// evaluate j's problem. Either resubmits a live lease w held there.
func (s *Scheduler) detach(w *fleetWorker, j *job, kind master.EventKind) {
	delete(j.workers, w.sess.ID)
	j.adv.SetLive(len(j.workers))
	if j.state == StateRunning {
		s.sm.Feed(j, master.Event{Kind: kind, Worker: int(w.sess.ID), At: s.now()})
	}
}

// Route returns the job and core lease a fleet result answers, or nil
// when the result has nowhere to go.
func (r router) Route(sess *wire.Session, msg *wire.Result) (federation.Lane, uint64) {
	w := r.fleet[sess.ID]
	item, ok := w.leases[msg.Lease]
	if !ok {
		return nil, 0 // not a lease this worker holds: noise
	}
	delete(w.leases, msg.Lease)
	j := w.held
	if j.state != StateRunning {
		return nil, 0 // the job ended while this evaluation was in flight
	}
	if len(msg.Objs) != j.problem.NumObjs() || len(msg.Constrs) != problems.NumConstraints(j.problem) {
		// The worker could not evaluate this problem (not in its
		// registry, dimension drift): an empty or misshapen Result
		// fails the lease, not the session. Resubmit the work and never
		// offer this worker the job again.
		j.failed[sess.ID] = struct{}{}
		r.mEvalFailures.Inc()
		r.cfg.logf("jobs: worker %d cannot evaluate %s for %s", sess.ID, j.name, j.id)
		r.detach(w, j, master.EvGone)
		w.job = nil
		return nil, 0
	}
	return j, item
}

// Lease books a grant under a fresh fleet-wide wire lease: core lease
// ids are per job and collide across cores.
func (r router) Lease(sess *wire.Session, l federation.Lane, item uint64) (uint64, string) {
	j, w := l.(*job), r.fleet[sess.ID]
	if w == nil || w.job != j {
		return 0, "" // stale grant to a worker the job lost
	}
	r.nextWireLease++
	w.held, w.leases[r.nextWireLease] = j, item
	return r.nextWireLease, j.name
}

// Act carries out a job's ActComplete, and its ActStop, which releases
// the worker back to the pool — the fleet is shared, so a completed job
// never stops a worker process.
func (r router) Act(l federation.Lane, a master.Action) {
	if a.Kind == master.ActComplete {
		r.finishJob(l.(*job))
	} else if w := r.fleet[uint64(a.Worker)]; w != nil {
		r.assign(w)
	}
}

// Tick feeds every running job's core the lease tick, then re-offers
// every idle worker: lease expiries and newly started jobs create
// demand between result boundaries.
func (r router) Tick(at float64) {
	for _, id := range r.order {
		if j := r.jobs[id]; j.state == StateRunning {
			r.sm.Feed(j, master.Event{Kind: master.EvTick, At: at})
		}
	}
	r.sweepAssign()
}

func (s *Scheduler) sweepAssign() {
	ws := make([]*fleetWorker, 0, len(s.fleet))
	for _, w := range s.fleet {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a].sess.ID < ws[b].sess.ID })
	for _, w := range ws {
		s.assign(w)
	}
}

// assign offers an idle worker to the runnable job with the lowest
// stride pass — the fair-share decision point. Ties break by job id,
// so equal-priority jobs round-robin deterministically. The chosen
// job's core hears EvReady (worker already its) or EvJoin (worker
// migrates, with a graceful EvLeave to its previous job); both are
// ordinary events in the job's BMEL log, so replay reproduces every
// fair-share decision.
func (s *Scheduler) assign(w *fleetWorker) {
	if w.sess.Gone() || len(w.leases) > 0 {
		return
	}
	var best *job
	for _, id := range s.order {
		j := s.jobs[id]
		if !j.wantWork() {
			continue
		}
		if _, bad := j.failed[w.sess.ID]; bad {
			continue
		}
		if best == nil || j.pass < best.pass {
			best = j
		}
	}
	if best == nil {
		return // nothing runnable wants work; stay parked where we are
	}
	best.pass += best.stride
	if w.job == best {
		s.sm.Feed(best, master.Event{Kind: master.EvReady, Worker: int(w.sess.ID), At: s.now()})
		return
	}
	if w.job != nil {
		s.detach(w, w.job, master.EvLeave)
	}
	w.job = best
	best.workers[w.sess.ID] = struct{}{}
	best.adv.SetLive(len(best.workers))
	s.sm.Feed(best, master.Event{Kind: master.EvJoin, Worker: int(w.sess.ID), At: s.now()})
}

// --- job lifecycle --------------------------------------------------

// newTerms builds the job's meter over its advisor, its trace collector
// (if any) and the scheduler's timing histograms.
func (s *Scheduler) newTerms(j *job) *master.Terms {
	return master.NewTerms(master.Wall, master.TermsConfig{Meters: s.timing, Advisor: j.adv, Trace: j.trace})
}

func (s *Scheduler) submit(spec *Spec) (Status, error) {
	if s.draining.Load() {
		s.mRejected.Inc()
		return Status{}, ErrDraining
	}
	problem, algCfg, err := spec.Normalize()
	if err != nil {
		s.mRejected.Inc()
		return Status{}, err
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mRejected.Inc()
		return Status{}, ErrOverloaded
	}
	s.nextJob++
	wall := time.Now()
	j := &job{
		id:          fmt.Sprintf("j%06d", s.nextJob),
		spec:        spec,
		problem:     problem,
		name:        problem.Name(),
		algCfg:      algCfg,
		state:       StateQueued,
		stride:      strideOne / uint64(spec.Priority),
		workers:     make(map[uint64]struct{}),
		failed:      make(map[uint64]struct{}),
		submittedAt: wall.Format(time.RFC3339Nano),
		submitted:   s.now(),
	}
	if s.cfg.StateDir != "" {
		// The run record exists from accept on; without StateDir nothing would read one.
		j.ck, j.log = &ckpt{dir: s.cfg.StateDir, id: j.id}, &master.Log{Meta: s.logMeta(j)}
		if err := j.ck.create(j.log.Meta); err != nil {
			s.mRejected.Inc()
			return Status{}, err
		}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.mSubmitted.Inc()
	s.cfg.logf("jobs: %s submitted: %s budget %d priority %d", j.id, j.name, spec.Evaluations, spec.Priority)
	s.maybeStart()
	return s.status(j), nil
}

// maybeStart promotes queued jobs into running ones while active-job
// slots are free.
func (s *Scheduler) maybeStart() {
	for len(s.queue) > 0 && (s.cfg.MaxActive <= 0 || s.active < s.cfg.MaxActive) {
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.state != StateQueued {
			continue // cancelled while queued
		}
		s.startJob(j)
	}
}

// newBorg returns the Borg j runs on: a spare reset onto j's problem,
// or a new one when there is no spare.
func (s *Scheduler) newBorg(j *job) (*core.Borg, error) {
	n := len(s.spares)
	if n == 0 {
		return core.New(j.problem, j.algCfg)
	}
	b := s.spares[n-1]
	if err := b.Reset(j.problem, j.algCfg); err != nil {
		return nil, err // b stays a spare
	}
	s.spares[n-1] = nil
	s.spares = s.spares[:n-1]
	return b, nil
}

// logMeta is the header of j's log: what j's core stamps on it, and
// the run record naming j's spec and accept-time stamps.
func (s *Scheduler) logMeta(j *job) master.LogMeta {
	return master.LogMeta{
		Policy:       master.ScheduledOffspring,
		Budget:       j.spec.Evaluations,
		LeaseTimeout: max(0, s.sm.LeaseTimeout.Seconds()),
		Run:          &master.RunHeader{Spec: j.spec, SubmittedAt: j.submittedAt, SubmittedSeconds: j.submitted},
	}
}

// setRunning counts j as a running job.
func (s *Scheduler) setRunning(j *job) {
	j.state = StateRunning
	s.active++
	s.peakActive = max(s.peakActive, s.active)
}

// startJob builds the job's Borg instance, core and checkpoint stream,
// then pulls in any idle fleet workers.
func (s *Scheduler) startJob(j *job) {
	b, err := s.newBorg(j)
	if err != nil {
		s.failJob(j, fmt.Sprintf("constructing algorithm: %v", err))
		return
	}
	j.borg = b
	advCfg := advisor.Config{}
	if s.cfg.TraceRate > 0 {
		j.trace = obs.NewCollector(obs.CollectorConfig{
			RunID: traceRunID(j.id),
			Rate:  s.cfg.TraceRate,
		})
		advCfg.OnStraggler = j.trace.ForceWorker
	}
	j.adv = advisor.New(advCfg)
	j.adv.Configure(0, j.spec.Evaluations)
	j.terms = s.newTerms(j)
	newJobQuality(j).Attach(b)
	j.mcore = master.NewCore(s.sm.CoreConfig(master.Config{
		Budget:   j.spec.Evaluations,
		Policy:   master.ScheduledOffspring,
		Alg:      j.terms.Bracket(b, nil),
		Log:      j.log,
		OnAccept: s.onAcceptHook(j),
	}, j.terms, j.quality))
	if j.ck != nil {
		if err := j.ck.appendLog(j.log); err != nil {
			s.failJob(j, fmt.Sprintf("opening checkpoint log: %v", err))
			return
		}
	}
	s.setRunning(j)
	// Floor the new job's pass at the runnable minimum so it neither
	// monopolizes the fleet (pass 0 would win every assignment until
	// it caught up) nor waits behind long-running jobs' accumulated
	// passes.
	var minPass uint64
	found := false
	for _, id := range s.order {
		o := s.jobs[id]
		if o != j && o.wantWork() && (!found || o.pass < minPass) {
			minPass, found = o.pass, true
		}
	}
	if found && j.pass < minPass {
		j.pass = minPass
	}
	s.cfg.logf("jobs: %s running", j.id)
	s.sweepAssign()
}

// newJobQuality builds the job's quality sampler when the spec opted
// in (Spec.QualityEvery > 0), wiring its samples into the job's stall
// detector. Returns nil — everywhere nil-safe — otherwise.
func newJobQuality(j *job) *obs.QualitySampler {
	if j.spec.QualityEvery == 0 {
		return nil
	}
	j.quality = obs.NewQualitySampler(obs.QualityConfig{
		Every:    j.spec.QualityEvery,
		Ref:      metrics.RefPointFor(j.name, j.problem.NumObjs()),
		OnSample: j.adv.ObserveQuality,
	})
	return j.quality
}

// onAcceptHook counts live accepts, records first-result latency on
// the scheduler clock and feeds the job's advisor. Replay re-accepts
// results the dead server already counted and timed, so it neither
// counts nor times them again; firstResult and the advisor still see
// the recorded timestamps, so a resumed job keeps its original
// figures.
func (s *Scheduler) onAcceptHook(j *job) func(uint64, float64) {
	return func(completed uint64, at float64) {
		if completed == 1 {
			j.firstResult = at
			if !j.replaying {
				s.hFirstResult.Observe(at - j.submitted)
			}
		}
		if !j.replaying {
			s.mEvals.Inc()
		}
		j.adv.ObserveAccept(completed, at)
	}
}

func (s *Scheduler) finishJob(j *job) {
	j.state = StateDone
	j.finished = s.now()
	s.active--
	s.mCompleted.Inc()
	s.cfg.logf("jobs: %s done: %d evaluations, archive %d", j.id, j.mcore.Completed(), j.borg.Archive().Size())
	if j.ck != nil {
		if err := j.ck.finalize(j); err != nil {
			s.cfg.logf("jobs: %s finalize: %v", j.id, err)
		}
	}
	s.freeze(j)
	s.maybeStart()
}

func (s *Scheduler) failJob(j *job, msg string) {
	if j.state == StateRunning {
		s.active--
	}
	j.state = StateFailed
	j.errMsg = msg
	j.finished = s.now()
	s.mFailed.Inc()
	s.cfg.logf("jobs: %s failed: %s", j.id, msg)
	if j.ck != nil {
		if err := j.ck.finalize(j); err != nil {
			s.cfg.logf("jobs: %s finalize: %v", j.id, err)
		}
	}
	s.freeze(j)
	s.maybeStart()
}

func (s *Scheduler) cancel(id string) error {
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.state.Terminal() {
		return nil // idempotent
	}
	if j.state == StateQueued {
		// Free the backlog slot so MaxQueue backpressure reflects jobs
		// that can still run.
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
	}
	if j.state == StateRunning {
		s.active--
	}
	j.state = StateCancelled
	j.finished = s.now()
	s.mCancelled.Inc()
	if j.ck != nil {
		if err := j.ck.finalize(j); err != nil {
			s.cfg.logf("jobs: %s finalize: %v", j.id, err)
		}
	}
	s.cfg.logf("jobs: %s cancelled", j.id)
	// Workers park or return in-flight results that now route to a
	// cancelled job; either way they get reassigned. Freezing clears
	// their assignment now, so idle ones move immediately.
	s.freeze(j)
	s.maybeStart()
	s.sweepAssign()
	return nil
}

// freeze turns a terminal job into its frozen record: the final Status
// and advisor report, and the archive document unless the job's
// archive file holds it. The job's workers are unassigned, its Borg
// becomes a spare for the next job, and the rest of its algorithm state
// is dropped, so later results, leaves and gone events for it touch no
// core. A job that completes is frozen inside its core's action loop:
// the socket master holds the core it feeds, and a completed core's
// remaining actions, ActStops, touch only workers.
func (s *Scheduler) freeze(j *job) {
	for wid := range j.workers {
		if w := s.fleet[wid]; w != nil && w.job == j {
			w.job = nil
		}
	}
	j.workers = nil
	st := s.status(j)
	j.final = &st
	if j.adv != nil {
		r := j.adv.Report()
		j.report = &r
	}
	if b := j.borg; b != nil {
		if j.ck == nil {
			var err error
			if s.encBuf, err = core.AppendArchive(s.encBuf[:0], b.Archive()); err != nil {
				s.cfg.logf("jobs: %s final archive: %v", j.id, err)
			} else {
				j.result = append([]byte(nil), s.encBuf...)
			}
		}
		if len(s.spares) < s.peakActive {
			s.spares = append(s.spares, b)
		}
	}
	// The sampler must not reach the Borg the next job runs on.
	j.quality.Attach(nil)
	j.borg, j.mcore, j.adv, j.terms, j.quality = nil, nil, nil, nil, nil
}

// shutdown runs under the loop lock at the end of Close, once the fleet
// is gone: it closes running jobs' log streams, and the scheduler to
// everything.
func (s *Scheduler) shutdown() {
	s.closed = true
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateRunning && j.ck != nil {
			j.ck.close()
		}
	}
}

// status builds a job's externally visible snapshot; loop-locked.
func (s *Scheduler) status(j *job) Status {
	if j.final != nil {
		return *j.final
	}
	st := Status{
		ID:                 j.id,
		State:              j.state,
		Problem:            j.name,
		Priority:           j.spec.Priority,
		Budget:             j.spec.Evaluations,
		SubmittedAt:        j.submittedAt,
		SubmittedSeconds:   j.submitted,
		FirstResultSeconds: j.firstResult,
		FinishedSeconds:    j.finished,
		Error:              j.errMsg,
		Workers:            len(j.workers),
	}
	if j.mcore != nil {
		stats := j.mcore.Stats()
		st.Evaluations = stats.Completed
		st.Outstanding = j.mcore.Outstanding()
		st.Pending = j.mcore.PendingLen()
		st.Resubmissions = stats.Resubmissions
		st.Duplicates = stats.Duplicates
		st.Leaves = stats.Leaves
		st.Deaths = stats.Deaths
	}
	if j.borg != nil {
		st.ArchiveSize = j.borg.Archive().Size()
	}
	if j.quality != nil {
		if latest, ok := j.quality.Latest(); ok {
			st.Quality = &latest
		}
	}
	return st
}

// --- public API (each call takes the loop lock) ---------------------

// Submit validates and enqueues a job, returning its initial status.
func (s *Scheduler) Submit(spec *Spec) (Status, error) {
	var st Status
	var err error
	if derr := s.do(func() { st, err = s.submit(spec) }); derr != nil {
		return Status{}, derr
	}
	return st, err
}

// Get returns one job's status, including its advisor report: a
// running job's live analysis, a finished one's last. A finished job's
// report and quality sample are shared by every Get and must not be
// modified.
func (s *Scheduler) Get(id string) (Status, error) {
	var st Status
	var adv *advisor.Advisor
	err := ErrNotFound
	if derr := s.do(func() {
		if j, ok := s.jobs[id]; ok {
			st, adv, err = s.status(j), j.adv, nil
			st.Advisor = j.report
		}
	}); derr != nil {
		return Status{}, derr
	}
	if err != nil {
		return Status{}, err
	}
	if adv != nil {
		// Report takes the advisor's own lock; do it off the loop lock.
		r := adv.Report()
		st.Advisor = &r
	}
	return st, nil
}

// List returns every job's status in submission order.
func (s *Scheduler) List() ([]Status, error) {
	var out []Status
	if derr := s.do(func() {
		out = make([]Status, 0, len(s.order))
		for _, id := range s.order {
			out = append(out, s.status(s.jobs[id]))
		}
	}); derr != nil {
		return nil, derr
	}
	return out, nil
}

// Cancel stops a job. Cancelling a terminal job is a no-op; partial
// results stay fetchable.
func (s *Scheduler) Cancel(id string) error {
	var err error
	if derr := s.do(func() { err = s.cancel(id) }); derr != nil {
		return derr
	}
	return err
}

// Result returns a job's current ε-archive as the canonical archive
// JSON (core.SaveArchive format) — partial while the job runs, final
// once it is terminal. A finished job with StateDir serves its
// <id>.archive.json, as one restored from its terminal marker does;
// without StateDir it serves the document encoded when it finished,
// which every call shares and none may modify.
func (s *Scheduler) Result(id string) ([]byte, error) {
	var out []byte
	var path string
	err := ErrNotFound
	if derr := s.do(func() {
		j, ok := s.jobs[id]
		if !ok {
			return
		}
		err = nil
		switch {
		case j.borg != nil:
			out, err = core.AppendArchive(nil, j.borg.Archive())
		case j.ck != nil:
			path = j.ck.path("archive.json")
		case j.result != nil:
			out = j.result
		default:
			err = fmt.Errorf("jobs: %s has no results yet", id)
		}
	}); derr != nil {
		return nil, derr
	}
	if err != nil {
		return nil, err
	}
	if path != "" {
		data, rerr := os.ReadFile(path)
		if os.IsNotExist(rerr) {
			return nil, fmt.Errorf("jobs: %s has no results yet", id)
		}
		return data, rerr
	}
	return out, nil
}

// traceRunID derives a stable per-job trace run id from the job id
// (FNV-1a), so a job's trace ids are reproducible across restarts.
func traceRunID(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// Traces returns the live trace collector of every job that has one
// (Config.TraceRate > 0), keyed by job id.
func (s *Scheduler) Traces() (map[string]*obs.Collector, error) {
	out := make(map[string]*obs.Collector)
	if derr := s.do(func() {
		for id, j := range s.jobs {
			if j.trace != nil {
				out[id] = j.trace
			}
		}
	}); derr != nil {
		return nil, derr
	}
	return out, nil
}

// Reports returns the advisor report of every job that has run, for
// /debug/scaling: a running job's live analysis, a finished one's last.
func (s *Scheduler) Reports() (map[string]advisor.Report, error) {
	out := make(map[string]advisor.Report)
	live := make(map[string]*advisor.Advisor)
	if derr := s.do(func() {
		for id, j := range s.jobs {
			switch {
			case j.adv != nil:
				live[id] = j.adv
			case j.report != nil:
				out[id] = *j.report
			}
		}
	}); derr != nil {
		return nil, derr
	}
	// Report takes the advisor's own lock; do it off the loop lock.
	for id, adv := range live {
		out[id] = adv.Report()
	}
	return out, nil
}
