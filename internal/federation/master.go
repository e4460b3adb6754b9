package federation

import (
	"fmt"
	"net"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/wire"
)

// SocketMaster is the asynchronous master over a TCP worker fleet,
// written once for parallel.RunAsyncDistributed, every island of Run
// and the job scheduler: a wire.Host whose handler feeds joins, results
// and deaths to master.Core state machines and executes their actions
// on the sockets, plus the lease ticks and the wall limit, which enter
// through the host's loop lock. Run drives one core that owns every
// session, under wire leases that are its core leases; Serve shares the
// fleet among the lanes of a Router. What only one driver needs — its
// offspring policy, migration, job lifecycle, result assembly — stays
// in the driver: in the Core configuration it hands
// Run, in AfterAccept, or in its Router.
type SocketMaster struct {
	// Terms is the master's meter: the driver's bracket around its Borg
	// reports T_A to it, and Run reports T_F, T_C and queue waits.
	// Under Serve each lane brings its own.
	Terms *master.Terms
	// Advisor hears the live worker count and, as Run's core's
	// OnAccept (in place of any cfg sets), every accept.
	Advisor *advisor.Advisor
	// Quality, when set, is attached to the driver's Borg and sampled
	// on its cadence through an EvQuality event, so the sample point
	// lands in the BMEL log. Under Serve each lane brings its own.
	Quality *obs.QualitySampler
	// Start is the wall-clock instant the run's clock reads zero at.
	Start time.Time
	// LeaseTimeout, when positive, expires leases that old.
	LeaseTimeout time.Duration
	// WallLimit, when positive, ends a run still going after it with
	// an error.
	WallLimit time.Duration
	// AfterAccept, when set, runs under the loop lock after each
	// result the Core accepted, with the accept count; an error ends
	// the run with it.
	AfterAccept func(n uint64) error
	// Name prefixes the lifecycle messages Logf receives.
	Name string
	Logf func(format string, args ...any)

	router   Router       // Serve's; nil under Run
	core     *master.Core // Run's
	log      *master.Log
	host     wire.Host
	elapsed  float64       // clock reading of the budget's last accept
	over     bool          // loop-locked: the run ended; the handler ignores what still arrives
	runErr   error         // what ended it early
	finished chan struct{} // closed when over is set
	looped   chan struct{} // closed when Serve's tick loop has stopped
}

// A Lane is one master.Core a SocketMaster drives, with the meter its
// results and grants report to and the sampler on its quality cadence
// (nil when it samples none).
type Lane interface {
	Lane() (*master.Core, *master.Terms, *obs.QualitySampler)
}

// A Router shares a SocketMaster's fleet among many lanes — the job
// scheduler's jobs. The master keeps the sessions, the result path, the
// grants and the ticks; the router says which lane a worker works for.
// Its methods run under the loop lock and may call Feed.
type Router interface {
	// Route returns the lane and core lease a result's wire lease was
	// granted for; a nil lane when its lane ended or it does not fit.
	Route(s *wire.Session, r *wire.Result) (Lane, uint64)
	// Lease books l's core lease item as granted to s and returns the
	// wire lease and problem to send it under; lease 0 if s left l.
	Lease(s *wire.Session, l Lane, item uint64) (lease uint64, problem string)
	// Assign offers s, which joined or had its result handled, to the
	// lane it should work for next.
	Assign(s *wire.Session)
	// Act carries out one of l's ActStop and ActComplete actions.
	Act(l Lane, a master.Action)
	// Retire forgets a dead session; each lane it served hears EvGone.
	Retire(s *wire.Session)
	// Tick feeds every lane the lease tick at clock reading at.
	Tick(at float64)
}

// owner is Run's one core as a lane: the core owns every session.
type owner SocketMaster

func (o *owner) Lane() (*master.Core, *master.Terms, *obs.QualitySampler) {
	return o.core, o.Terms, o.Quality
}

func (sm *SocketMaster) since() float64 { return time.Since(sm.Start).Seconds() }

func (sm *SocketMaster) logf(format string, args ...any) {
	if sm.Logf != nil {
		sm.Logf(sm.Name+": "+format, args...)
	}
}

// lost records a session the host dropped; the state machines hear
// about the death separately (EvGone, or the retire inside a replacing
// EvJoin).
func (sm *SocketMaster) lost(s *wire.Session, why error) {
	sm.Advisor.SetLive(sm.host.Live())
	sm.logf("worker %d gone: %v", s.ID, why)
}

// gone declares a dropped session's worker dead.
func (sm *SocketMaster) gone(s *wire.Session, why error) {
	sm.lost(s, why)
	if sm.router != nil {
		sm.router.Retire(s)
		return
	}
	sm.handle(master.Event{Kind: master.EvGone, Worker: int(s.ID), At: sm.since()})
}

// handle feeds e to Run's core.
func (sm *SocketMaster) handle(e master.Event) { sm.Feed((*owner)(sm), e) }

// Feed hands e to l's core and executes the actions it returns. Call
// it under the loop lock: from a Router's methods or inside Do.
func (sm *SocketMaster) Feed(l Lane, e master.Event) {
	c, terms, _ := l.Lane()
	// Handle reuses its action slice, so a session whose grant send
	// failed is dropped at once (later actions skip it) but declared
	// gone only after the loop.
	type failure struct {
		s   *wire.Session
		err error
	}
	var failed []failure
	for _, a := range c.Handle(e) {
		switch {
		case a.Kind == master.ActGrant:
			s := sm.host.Lookup(a.Worker)
			if s == nil {
				continue
			}
			lease, problem := a.Item.ID, ""
			if sm.router != nil {
				if lease, problem = sm.router.Lease(s, l, lease); lease == 0 {
					continue
				}
			}
			tc, err := sm.host.Grant(s, lease, a.Item, problem)
			if err != nil {
				sm.host.Drop(s)
				failed = append(failed, failure{s, err})
				continue
			}
			terms.Sent(a.Item, tc)
		case sm.router != nil: // a lane's ActStop and ActComplete are the router's
			sm.router.Act(l, a)
		case a.Kind == master.ActStop:
			sm.host.Stop(a.Worker)
		case a.Kind == master.ActComplete:
			sm.elapsed = sm.since()
			sm.log.SetElapsed(sm.elapsed)
		}
	}
	for _, f := range failed {
		sm.gone(f.s, f.err)
	}
}

// finish ends the run, under the loop lock; the first call wins.
func (sm *SocketMaster) finish(err error) {
	if !sm.over {
		sm.over, sm.runErr = true, err
		close(sm.finished)
	}
}

// onEvent is the host's handler: one session event, under the loop
// lock.
func (sm *SocketMaster) onEvent(e wire.HostEvent) {
	if sm.over {
		return
	}
	s, r := e.Sess, sm.router
	switch e.Kind {
	case wire.HostJoin:
		if old := sm.host.Admit(s); old != nil {
			// Reconnect-with-hello: the old incarnation's work died with
			// it. Run's core retires it inside EvJoin; a router, now.
			sm.lost(old, fmt.Errorf("replaced by reconnect"))
			if r != nil {
				r.Retire(old)
			}
		}
		sm.Advisor.SetLive(sm.host.Live())
		sm.logf("worker %d joined from %s (%d live)", s.ID, s.RemoteAddr(), sm.host.Live())
		if r != nil {
			r.Assign(s)
		} else {
			sm.handle(master.Event{Kind: master.EvJoin, Worker: int(s.ID), At: sm.since()})
		}
	case wire.HostDead:
		if sm.host.Drop(s) { // inert when already torn down (replaced, or send failure)
			sm.gone(s, e.Err)
		}
	case wire.HostResult:
		if !s.Gone() {
			sm.result(s, e.Result, e.Wait)
		}
		// Run's core regranted inside EvResult; a router's worker waits
		// to be offered again.
		if r != nil && !s.Gone() {
			r.Assign(s)
		}
	}
	if sm.core != nil && sm.core.Done() {
		sm.finish(nil)
	}
}

// result folds one result into the lane its wire lease names; wait is
// how long it queued for the loop lock.
func (sm *SocketMaster) result(s *wire.Session, msg *wire.Result, wait float64) {
	l, lease := Lane((*owner)(sm)), msg.Lease
	if sm.router != nil {
		if l, lease = sm.router.Route(s, msg); l == nil {
			return
		}
	}
	c, terms, q := l.Lane()
	// Fill in the solution and meter T_F only when the machine will
	// accept this result (a live lease granted to this worker); late
	// duplicates are discarded inside.
	if worker, item, live := c.Lease(lease); live && worker == int(s.ID) {
		terms.Evaluated(int(s.ID), item, msg.Fill(item))
		terms.Queued(item, wait)
	}
	prev := c.Completed()
	sm.Feed(l, master.Event{Kind: master.EvResult, Worker: int(s.ID), Item: lease, At: sm.since()})
	if n := c.Completed(); n > prev && sm.AfterAccept != nil {
		if err := sm.AfterAccept(n); err != nil {
			sm.finish(err)
			return
		}
	}
	// Quality cadence: the trigger detours through the core so the
	// sample point lands in its BMEL log (replayable even though this
	// clock is wall time).
	if q != nil && !c.Done() && q.Due(c.Completed(), sm.since()) {
		sm.Feed(l, master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: sm.since()})
	}
}

// tick feeds the lease tick, under the loop lock.
func (sm *SocketMaster) tick() {
	if r := sm.router; r != nil && !sm.over {
		r.Tick(sm.since())
	} else if !sm.over {
		sm.handle(master.Event{Kind: master.EvTick, At: sm.since()})
	}
}

// loop feeds lease ticks and enforces the wall limit until the run
// finishes.
func (sm *SocketMaster) loop() {
	var tickC <-chan time.Time
	if sm.LeaseTimeout > 0 {
		ticker := time.NewTicker(wire.TickInterval(sm.LeaseTimeout))
		defer ticker.Stop()
		tickC = ticker.C
	}
	var wallC <-chan time.Time
	if sm.WallLimit > 0 {
		wall := time.NewTimer(sm.WallLimit)
		defer wall.Stop()
		wallC = wall.C
	}
	for {
		select {
		case <-sm.finished:
			return
		case <-tickC:
			sm.host.Do(sm.tick)
		case <-wallC:
			sm.host.Do(func() {
				sm.finish(fmt.Errorf("wall limit %v reached with %d evaluations", sm.WallLimit, sm.core.Completed()))
			})
		}
	}
}

// Run builds the state machine from cfg, completed with what every
// socket master shares, and serves the workers that dial ln until the
// budget completes, AfterAccept fails or the wall limit strikes; then
// it stops every worker the host accepted. It returns the machine, in
// its final state, the clock reading of the budget's last accept (of
// the end, when the budget did not complete) and the error that ended
// the run early.
func (sm *SocketMaster) Run(cfg master.Config, ln net.Listener, conn wire.Options, problem problems.Problem) (*master.Core, float64, error) {
	cfg = sm.CoreConfig(cfg, sm.Terms, sm.Quality)
	if sm.Advisor != nil {
		cfg.OnAccept = sm.Advisor.ObserveAccept
	}
	sm.core, sm.log = master.NewCore(cfg), cfg.Log
	sm.finished = make(chan struct{})
	sm.host.Serve(ln, conn, problem, sm.onEvent)
	sm.loop()
	// Stops every worker the host ever accepted; no handler runs after
	// it, so the state below is final.
	sm.host.Close(true)
	if sm.elapsed == 0 {
		sm.elapsed = sm.since()
	}
	return sm.core, sm.elapsed, sm.runErr
}

// CoreConfig returns cfg completed with what every core a socket master
// drives shares: its lease timeout, in-place reissue, the tracer of the
// core's meter and the cadence of its quality sampler, if any.
func (sm *SocketMaster) CoreConfig(cfg master.Config, terms *master.Terms, q *obs.QualitySampler) master.Config {
	cfg.LeaseTimeout = max(0, sm.LeaseTimeout.Seconds())
	// Workers hold deep copies of granted work (frames encode the
	// solution), so an expired lease's wrapper and Solution can be
	// reissued in place instead of cloned.
	cfg.ReuseOnResubmit = true
	cfg.Tracer = terms.Tracer()
	if q != nil {
		cfg.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
	return cfg
}

// Serve starts serving the workers that dial ln for r's lanes and
// returns. Workers are welcomed to a MultiProblem session: each grant
// names its lane's problem. Pair Serve with Close.
func (sm *SocketMaster) Serve(r Router, ln net.Listener, conn wire.Options) {
	sm.router, sm.finished, sm.looped = r, make(chan struct{}), make(chan struct{})
	sm.host.Serve(ln, conn, nil, sm.onEvent)
	go func() { sm.loop(); close(sm.looped) }()
}

// Close ends Serve: the ticks stop and every connection drops without a
// Stop — a shared fleet outlives any one server, so its workers redial
// the next. Call it from outside Do; later calls do nothing.
func (sm *SocketMaster) Close() {
	sm.host.Do(func() { sm.finish(nil) })
	<-sm.looped
	sm.host.Close(false)
}

// Do runs fn under the loop lock, where fn may call Feed.
func (sm *SocketMaster) Do(fn func()) { sm.host.Do(fn) }

// Reserve keeps fresh worker ids above id (see wire.Host.Reserve).
func (sm *SocketMaster) Reserve(id uint64) { sm.host.Reserve(id) }
