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
// written once for parallel.RunAsyncDistributed and every island of
// Run: a wire.Host whose handler feeds the state machine joins,
// results and deaths and executes its actions on the sockets, plus the
// lease ticks and the wall limit, which enter through the host's loop
// lock. What only one driver needs — its offspring policy, checkpoints,
// migration, result assembly — stays in the driver, in the Core
// configuration it hands Run and in AfterAccept.
type SocketMaster struct {
	// Terms is the master's meter: the driver's bracket around its Borg
	// reports T_A to it, and Run reports T_F, T_C and queue waits.
	Terms *master.Terms
	// Advisor hears the live worker count and every accept.
	Advisor *advisor.Advisor
	// Quality, when set, is attached to the driver's Borg and sampled
	// on its cadence through an EvQuality event, so the sample point
	// lands in the BMEL log.
	Quality *obs.QualitySampler
	// Journal, when set, records worker joins and deaths and each
	// evaluation's span.
	Journal *obs.Recorder
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

	core    *master.Core
	log     *master.Log
	host    wire.Host
	elapsed float64 // clock reading of the budget's last accept
}

func (sm *SocketMaster) since() float64 { return time.Since(sm.Start).Seconds() }

func (sm *SocketMaster) logf(format string, args ...any) {
	if sm.Logf != nil {
		sm.Logf(sm.Name+": "+format, args...)
	}
}

// record journals a worker lifecycle event at the current clock.
func (sm *SocketMaster) record(kind string, s *wire.Session, detail string) {
	if sm.Journal != nil {
		sm.Journal.Record(obs.Event{TS: sm.since(), Kind: kind, Actor: fmt.Sprintf("worker%d", s.ID), Detail: detail})
	}
}

// lost records a session the host dropped; the state machine hears
// about the death separately (EvGone, or the retire inside a replacing
// EvJoin).
func (sm *SocketMaster) lost(s *wire.Session, why error) {
	sm.record("worker.dead", s, fmt.Sprintf("%v", why))
	sm.Advisor.SetLive(sm.host.Live())
	sm.logf("worker %d gone: %v", s.ID, why)
}

// gone declares a dropped session's worker dead.
func (sm *SocketMaster) gone(s *wire.Session, why error) {
	sm.lost(s, why)
	sm.handle(master.Event{Kind: master.EvGone, Worker: int(s.ID), At: sm.since()})
}

// handle feeds e to the Core and executes the actions it returns.
func (sm *SocketMaster) handle(e master.Event) {
	// Handle reuses its action slice, so a session whose grant send
	// failed is dropped at once (later actions skip it) but declared
	// gone only after the loop.
	type failure struct {
		s   *wire.Session
		err error
	}
	var failed []failure
	for _, a := range sm.core.Handle(e) {
		switch a.Kind {
		case master.ActGrant:
			if s := sm.host.Lookup(a.Worker); s != nil {
				tc, err := sm.host.Grant(s, a.Item.ID, a.Item, "")
				if err != nil {
					sm.host.Drop(s)
					failed = append(failed, failure{s, err})
					continue
				}
				sm.Terms.Sent(a.Item, tc)
			}
		case master.ActStop:
			sm.host.Stop(a.Worker)
		case master.ActComplete:
			sm.elapsed = sm.since()
			sm.log.SetElapsed(sm.elapsed)
		}
	}
	for _, f := range failed {
		sm.gone(f.s, f.err)
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
	cfg.LeaseTimeout = max(0, sm.LeaseTimeout.Seconds())
	// Workers hold deep copies of granted work (frames encode the
	// solution), so an expired lease's wrapper and Solution can be
	// reissued in place instead of cloned.
	cfg.ReuseOnResubmit = true
	cfg.Tracer = sm.Terms.Tracer()
	if sm.Advisor != nil {
		cfg.OnAcceptFrom = sm.Advisor.ObserveAccept
	}
	if q := sm.Quality; q != nil {
		cfg.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
	m := master.NewCore(cfg)
	sm.core, sm.log = m, cfg.Log
	// over (loop-locked) ends the run: once it is set, the handler
	// ignores whatever still arrives until Close stops the readers.
	over := false
	var runErr error
	finished := make(chan struct{})
	finish := func(err error) {
		if !over {
			over, runErr = true, err
			close(finished)
		}
	}
	sm.host.Serve(ln, conn, problem, func(e wire.HostEvent) {
		if over {
			return
		}
		s := e.Sess
		switch e.Kind {
		case wire.HostJoin:
			if old := sm.host.Admit(s); old != nil {
				// Reconnect-with-hello: the old incarnation's work died
				// with it; the machine retires it inside EvJoin.
				sm.lost(old, fmt.Errorf("replaced by reconnect"))
			}
			sm.Advisor.SetLive(sm.host.Live())
			sm.record("worker.join", s, s.RemoteAddr().String())
			sm.logf("worker %d joined from %s (%d live)", s.ID, s.RemoteAddr(), sm.host.Live())
			sm.handle(master.Event{Kind: master.EvJoin, Worker: int(s.ID), At: sm.since()})
		case wire.HostDead:
			if sm.host.Drop(s) { // inert when already torn down (replaced, or send failure)
				sm.gone(s, e.Err)
			}
		case wire.HostResult:
			if s.Gone() {
				break
			}
			msg := e.Result
			// Fill in the solution and meter T_F only when the machine
			// will accept this result (a live lease granted to this
			// worker); late duplicates are discarded inside.
			if worker, item, live := m.Lease(msg.Lease); live && worker == int(s.ID) {
				evalSec := msg.Fill(item)
				sm.Terms.Evaluated(int(s.ID), item, evalSec)
				sm.Terms.Queued(item, e.Wait)
				if sm.Journal != nil {
					// Reconstruct the worker's eval span master-side
					// from the reported duration.
					sm.Journal.Record(obs.Event{TS: sm.since() - evalSec, Dur: evalSec, Kind: "eval", Actor: fmt.Sprintf("worker%d", s.ID)})
				}
			}
			prev := m.Completed()
			sm.handle(master.Event{Kind: master.EvResult, Worker: int(s.ID), Item: msg.Lease, At: sm.since()})
			if n := m.Completed(); n > prev && sm.AfterAccept != nil {
				if err := sm.AfterAccept(n); err != nil {
					finish(err)
					return
				}
			}
			// Quality cadence: the trigger detours through the master so
			// the sample point lands in the BMEL log (replayable even
			// though this clock is wall time).
			if q := sm.Quality; q != nil && !m.Done() && q.Due(m.Completed(), sm.since()) {
				sm.handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: sm.since()})
			}
		}
		if m.Done() {
			finish(nil)
		}
	})

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
	tick := func() {
		if !over {
			sm.handle(master.Event{Kind: master.EvTick, At: sm.since()})
		}
	}
	for waiting := true; waiting; {
		select {
		case <-finished:
			waiting = false
		case <-tickC:
			sm.host.Do(tick)
		case <-wallC:
			sm.host.Do(func() { finish(fmt.Errorf("wall limit %v reached with %d evaluations", sm.WallLimit, m.Completed())) })
		}
	}
	// Stops every worker the host ever accepted; no handler runs after
	// it, so the state below is final.
	sm.host.Close(true)
	if sm.elapsed == 0 {
		sm.elapsed = sm.since()
	}
	return m, sm.elapsed, runErr
}
