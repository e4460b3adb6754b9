package parallel

import (
	"fmt"
	"net"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/wire"
)

// DistributedConfig parameterizes the network side of a distributed
// master-slave run (the algorithm side stays in Config).
type DistributedConfig struct {
	// Listen is the TCP address the master binds ("":7070", or
	// "127.0.0.1:0" to pick a free port). Ignored when Listener is
	// set.
	Listen string
	// Listener, when non-nil, is a pre-bound listener the master
	// adopts (tests and in-process examples bind port 0 themselves to
	// learn the address before starting workers). The master closes
	// it at the end of the run either way.
	Listener net.Listener
	// LeaseTimeout bounds how long the master waits for a dispatched
	// evaluation before presuming it lost and resubmitting a clone —
	// the wall-clock analogue of Config.LeaseTimeout. 0 falls back to
	// Config.LeaseTimeout (seconds) and then to 30s; < 0 disables
	// lease expiry (a dead connection still resubmits immediately).
	LeaseTimeout time.Duration
	// Conn tunes handshake, heartbeat, idle and write timeouts shared
	// by every accepted connection.
	Conn wire.Options
	// WallLimit aborts an unfinishable run (e.g. every worker gone
	// for good) after this much wall time; 0 means no limit. A run
	// that hits it returns Completed == false.
	WallLimit time.Duration
	// Logf, when set, receives worker lifecycle messages.
	Logf func(format string, args ...any)
}

func (d *DistributedConfig) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// RunAsyncDistributed executes the asynchronous master-slave Borg MOEA
// over real TCP: the master listens, borgd workers dial in, and the
// shared lease/resubmission protocol recovers evaluations lost to
// killed or partitioned workers. The master remains a single event
// loop — the paper's property that the algorithm's critical section is
// serial — running the same state machine (internal/master) as the
// virtual-time drivers, while the network layer feeds it joins,
// results and deaths.
//
// Differences from the virtual-time drivers: the worker pool is
// dynamic (Config.Processors is ignored; Result.Processors reports
// 1 + the peak concurrent worker count), T_F is whatever the workers
// actually take (plus any artificial delay configured worker-side),
// and faults are not injected — real workers fail for real. A worker
// that reconnects re-registers via its handshake Hello, which retires
// its old lease exactly like the virtual drivers' tagHello path.
func RunAsyncDistributed(cfg Config, dcfg DistributedConfig) (*Result, error) {
	if !cfg.Fault.Empty() {
		return nil, fmt.Errorf("parallel: fault injection requires a virtual-time driver (RunAsync/RunSync); distributed workers fail for real")
	}
	if cfg.Problem == nil {
		return nil, fmt.Errorf("parallel: Problem is required")
	}
	if cfg.Evaluations == 0 {
		return nil, fmt.Errorf("parallel: Evaluations must be positive")
	}
	if dcfg.Conn.Metrics == nil {
		// Connection telemetry lands in the run's registry by default.
		dcfg.Conn.Metrics = cfg.Metrics
	}
	adv := cfg.Advisor
	// P is dynamic here (inferred from live workers via SetLive); only
	// the budget is known up front.
	adv.Configure(0, cfg.Evaluations)
	if adv != nil && dcfg.Conn.OnRTT == nil {
		// Heartbeat RTTs stand in for T_C when there is no way to
		// observe one-way latency directly.
		dcfg.Conn.OnRTT = adv.ObserveRTT
	}
	leaseTimeout := dcfg.LeaseTimeout
	if leaseTimeout == 0 && cfg.LeaseTimeout > 0 {
		leaseTimeout = time.Duration(cfg.LeaseTimeout * float64(time.Second))
	}
	if leaseTimeout == 0 {
		leaseTimeout = 30 * time.Second
	}

	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b, err := core.New(cfg.Problem, algCfg)
	if err != nil {
		return nil, err
	}

	listener := dcfg.Listener
	if listener == nil {
		if dcfg.Listen == "" {
			return nil, fmt.Errorf("parallel: distributed run needs a Listen address or a Listener")
		}
		listener, err = net.Listen("tcp", dcfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("parallel: listen: %w", err)
		}
	}
	// Master side: the shared state machine on the wall clock, lazy
	// offspring generation (the worker pool is dynamic, so offspring
	// are suggested on demand at dispatch, bounded by the remaining
	// budget).
	res := &Result{Final: b}
	meters := master.NewMeters(cfg.Metrics)
	journal := cfg.Events
	meter := &taMeter{dist: cfg.TA, rng: rng.New(cfg.Seed ^ 0x6d617374), capture: cfg.CaptureTimings, hist: meters.TA, adv: adv}
	// One T_F recorder for the fleet: results arrive one at a time
	// under the host's loop lock, and each names its worker.
	tfRec := &tfRecorder{capture: cfg.CaptureTimings, hist: meters.TF, adv: adv}
	start := time.Now()
	var elapsedAtN float64
	since := func() float64 { return time.Since(start).Seconds() }
	record := func(ev obs.Event) {
		if journal != nil {
			ev.TS = since()
			journal.Record(ev)
		}
	}

	coreTimeout := 0.0
	if leaseTimeout > 0 {
		coreTimeout = leaseTimeout.Seconds()
	}
	// Accept and Suggest are metered separately (the lazy policy splits
	// them across the result and dispatch paths); per completed
	// evaluation they sum to the paper's T_A. curItem is the lease id of
	// the result being folded in, so the accept's T_A lands on that
	// evaluation's trace; a dispatch-path Suggest belongs to no one
	// evaluation. The journal shows each accept as an algo span: the
	// master's critical sections on the run's timeline.
	var curItem uint64
	alg := &master.Bracket{Algorithm: b, Enter: meter.enter, Leave: func(accept bool) {
		ta := meter.leave()
		if accept {
			cfg.Trace.ObserveTA(curItem, ta)
			if journal != nil {
				journal.Record(obs.Event{TS: since() - ta, Dur: ta, Kind: "algo", Actor: "master"})
			}
		}
	}}
	mcfg := master.Config{
		Budget:       cfg.Evaluations,
		LeaseTimeout: coreTimeout,
		Policy:       master.LazyOffspring,
		// Workers hold deep copies of granted work (frames encode the
		// solution), so an expired lease's wrapper and Solution can be
		// reissued in place instead of cloned.
		ReuseOnResubmit: true,
		Alg:             alg,
		Meters:          meters,
		Emit:            func(kind, detail string) { record(obs.Event{Kind: kind, Actor: "master", Detail: detail}) },
		Log:             cfg.Protocol,
		OnAccept: func(n uint64) {
			if cfg.CheckpointEvery > 0 && n%cfg.CheckpointEvery == 0 && cfg.OnCheckpoint != nil {
				meters.Checkpoints.Inc()
				cfg.OnCheckpoint(since(), b)
			}
		},
	}
	if adv != nil {
		mcfg.OnAcceptFrom = adv.ObserveAccept
	}
	if cfg.Trace != nil {
		mcfg.Tracer = cfg.Trace
	}
	if q := cfg.Quality; q != nil {
		q.Attach(b)
		mcfg.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
	m := master.NewCore(mcfg)

	// Transport: the shared socket host calls handle for every join,
	// result and death, on that session's reader goroutine under the
	// host's loop lock; lease ticks and the wall limit enter through Do.
	var host wire.Host

	// lost records a session the host dropped; the state machine hears
	// about the death separately (EvGone, or the retire inside a
	// replacing EvJoin).
	lost := func(s *wire.Session, why error) {
		record(obs.Event{Kind: "worker.dead", Actor: fmt.Sprintf("worker%d", s.ID), Detail: fmt.Sprintf("%v", why)})
		adv.SetLive(host.Live())
		dcfg.logf("parallel: worker %d gone: %v", s.ID, why)
	}
	var exec func(acts []master.Action)
	// gone declares a dropped session's worker dead.
	gone := func(s *wire.Session, why error) {
		lost(s, why)
		exec(m.Handle(master.Event{Kind: master.EvGone, Worker: int(s.ID), At: since()}))
	}
	exec = func(acts []master.Action) {
		// Handle reuses its action slice, so a session whose grant send
		// failed is dropped at once (later actions skip it) but declared
		// gone only after the loop.
		type failure struct {
			s   *wire.Session
			err error
		}
		var failed []failure
		for _, a := range acts {
			switch a.Kind {
			case master.ActGrant:
				if s := host.Lookup(a.Worker); s != nil {
					tc, err := host.Grant(s, a.Item.ID, a.Item, "")
					if err != nil {
						host.Drop(s)
						failed = append(failed, failure{s, err})
						continue
					}
					cfg.Trace.ObserveTCSend(a.Item.ID, tc)
				}
			case master.ActStop:
				host.Stop(a.Worker)
			case master.ActComplete:
				elapsedAtN = since()
				cfg.Protocol.SetElapsed(elapsedAtN)
			}
		}
		for _, f := range failed {
			gone(f.s, f.err)
		}
	}

	// over (loop-locked) ends the run: once the budget completes or the
	// wall limit strikes, the handler ignores whatever still arrives
	// until Close stops the readers.
	over := false
	finished := make(chan struct{})
	finish := func() {
		if !over {
			over = true
			close(finished)
		}
	}
	handle := func(e wire.HostEvent) {
		if over {
			return
		}
		s := e.Sess
		switch e.Kind {
		case wire.HostJoin:
			if old := host.Admit(s); old != nil {
				// Reconnect-with-hello: the old incarnation's work
				// died with it; the machine retires it inside EvJoin.
				lost(old, fmt.Errorf("replaced by reconnect"))
			}
			adv.SetLive(host.Live())
			record(obs.Event{Kind: "worker.join", Actor: fmt.Sprintf("worker%d", s.ID), Detail: s.RemoteAddr().String()})
			dcfg.logf("parallel: worker %d joined from %s (%d live)", s.ID, s.RemoteAddr(), host.Live())
			exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: int(s.ID), At: since()}))
		case wire.HostDead:
			if host.Drop(s) { // inert when already torn down (replaced, or send failure)
				gone(s, e.Err)
			}
		case wire.HostResult:
			if s.Gone() {
				break
			}
			msg := e.Result
			// Fill in the solution and meter T_F only when the
			// machine will accept this result (a live lease granted
			// to this worker); late duplicates are discarded inside.
			if worker, item, live := m.Lease(msg.Lease); live && worker == int(s.ID) {
				evalSec := msg.Fill(item)
				tfRec.worker = int(s.ID)
				tfRec.recordTraced(evalSec, item)
				cfg.Trace.ObserveTF(item.ID, evalSec)
				curItem = item.ID
				if journal != nil {
					// Reconstruct the worker's eval span master-side
					// from the reported duration.
					journal.Record(obs.Event{TS: since() - evalSec, Dur: evalSec, Kind: "eval", Actor: fmt.Sprintf("worker%d", s.ID)})
				}
			}
			exec(m.Handle(master.Event{Kind: master.EvResult, Worker: int(s.ID), Item: msg.Lease, At: since()}))
			// Quality cadence: route the trigger through the master
			// so the sample point lands in the BMEL log (replayable
			// even though this driver's clock is wall time).
			if q := cfg.Quality; q != nil && !m.Done() && q.Due(m.Completed(), since()) {
				exec(m.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: since()}))
			}
		}
		if m.Done() {
			finish()
		}
	}
	host.Serve(listener, dcfg.Conn, cfg.Problem, handle)

	var tickC <-chan time.Time
	if leaseTimeout > 0 {
		ticker := time.NewTicker(wire.TickInterval(leaseTimeout))
		defer ticker.Stop()
		tickC = ticker.C
	}
	var wallC <-chan time.Time
	if dcfg.WallLimit > 0 {
		wall := time.NewTimer(dcfg.WallLimit)
		defer wall.Stop()
		wallC = wall.C
	}
	tick := func() {
		if !over {
			exec(m.Handle(master.Event{Kind: master.EvTick, At: since()}))
		}
	}
	wallLimit := func() {
		if !over {
			dcfg.logf("parallel: wall limit %v reached with %d/%d evaluations", dcfg.WallLimit, m.Completed(), cfg.Evaluations)
			finish()
		}
	}
	for waiting := true; waiting; {
		select {
		case <-finished:
			waiting = false
		case <-tickC:
			host.Do(tick)
		case <-wallC:
			host.Do(wallLimit)
		}
	}
	// Stops every worker the host ever accepted; no handler runs after
	// it, so the state below is final.
	host.Close(true)

	st := m.Stats()
	res.ElapsedTime = elapsedAtN
	if res.ElapsedTime == 0 {
		res.ElapsedTime = since()
	}
	res.Evaluations = st.Completed
	res.Completed = st.Completed >= cfg.Evaluations
	res.Resubmissions = st.Resubmissions
	res.LostEvaluations = st.Lost
	res.DuplicateResults = st.Duplicates
	res.Processors = m.Peak() + 1
	res.MasterBusy = meter.sum
	if res.ElapsedTime > 0 {
		res.MasterUtilization = res.MasterBusy / res.ElapsedTime
	}
	if st.Completed > 0 {
		// Accept and Suggest are metered separately here; per
		// completed evaluation they sum to the paper's T_A.
		res.MeanTA = meter.sum / float64(st.Completed)
	}
	res.TASamples = meter.samples
	mergeTF(res, tfRec)
	return res, nil
}
