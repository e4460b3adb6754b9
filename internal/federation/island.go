package federation

import (
	"fmt"
	"net"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/wire"
)

// islandContext is everything one island master needs, assembled by
// Run before the island goroutines start.
type islandContext struct {
	cfg      *Config
	isl      int
	b        *core.Borg
	adv      *advisor.Advisor
	meters   master.Meters
	workerLn net.Listener
	peerLn   net.Listener
	succAddr string
	root     *Root
	log      *master.Log
	mlog     *MigrantLog
	trace    *obs.Collector      // nil disables tracing for this island
	quality  *obs.QualitySampler // nil disables quality sampling
}

// islandResult is one island's contribution to the federation Result.
type islandResult struct {
	elapsed  float64
	stats    master.Stats
	migrants uint64
	peak     int
}

// dialPeer dials the ring successor's peer listener, retrying while the
// rest of the federation is still binding (Run binds every listener
// first, so in practice the first attempt succeeds).
func dialPeer(addr string, deadline time.Time) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return nc, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("dial ring successor %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// runIsland is one island master: the shared state machine over a TCP
// worker pool, plus the synchronous migration-epoch protocol on the
// ring (see the package comment). It blocks until the island's budget
// completes or the run fails.
func runIsland(ic islandContext) (islandResult, error) {
	cfg := ic.cfg
	b := ic.b
	var ir islandResult

	ic.adv.Configure(0, cfg.Evaluations)

	connOpt := cfg.Conn
	if connOpt.OnRTT == nil {
		// Heartbeat RTTs stand in for T_C, as in the distributed driver.
		connOpt.OnRTT = ic.adv.ObserveRTT
	}

	// Worker transport, as in the distributed driver: the host calls the
	// island's handler for every session event under its loop lock, and
	// ticks and the wall limit enter through Do. It starts serving once
	// the ring is dialled (workers that connect earlier wait in the
	// listen backlog).
	var host wire.Host

	// Peer link: raw migrant frames from the ring predecessor, which may
	// run epochs ahead; the buffer lets its frames wait for the barrier,
	// the channel's only consumer.
	migrants := make(chan *wire.Migrant, 256)
	done := make(chan struct{})
	peer := wire.ServeFrames(ic.peerLn, func(m wire.Message) {
		if mg, ok := m.(*wire.Migrant); ok {
			select {
			case migrants <- mg:
			case <-done:
			}
		}
	})
	defer peer.Close()
	defer close(done) // first, so a reader mid-delivery lets peer.Close return

	migrate := cfg.MigrationEvery > 0 && cfg.Islands > 1
	var succ net.Conn
	if migrate {
		var err error
		succ, err = dialPeer(ic.succAddr, time.Now().Add(cfg.migrationTimeout()))
		if err != nil {
			ic.workerLn.Close() // never served, so no host Close will
			return ir, err
		}
		defer succ.Close()
	}
	var rootConn net.Conn
	if ic.root != nil && cfg.DeltaEvery > 0 {
		var err error
		rootConn, err = dialPeer(ic.root.Addr(), time.Now().Add(cfg.migrationTimeout()))
		if err != nil {
			ic.workerLn.Close()
			return ir, err
		}
		defer rootConn.Close()
	}

	// T_A is the wall-clock critical section, optionally stretched by a
	// sampled SimulateTA sleep (the knob that drags the per-island P_UB
	// into loopback-test range). curItem is the lease id of the result
	// being folded in (stashed by the loop before Handle), so the
	// accept's T_A lands on that evaluation's trace.
	var simR *rng.Source
	if cfg.SimulateTA != nil {
		simR = rng.New(cfg.Seed ^ (uint64(ic.isl+1) * 0x7461)) // "ta"
	}
	var sectionStart time.Time
	var curItem uint64
	alg := &master.Bracket{Algorithm: b, Enter: func() { sectionStart = time.Now() }, Leave: func(accept bool) {
		if simR != nil {
			time.Sleep(time.Duration(cfg.SimulateTA.Sample(simR) * float64(time.Second)))
		}
		ta := time.Since(sectionStart).Seconds()
		ic.meters.TA.Observe(ta)
		ic.adv.ObserveTA(ta)
		if accept {
			ic.trace.ObserveTA(curItem, ta)
		}
	}}

	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }
	var elapsedAt float64

	// staged carries the migrant solution from the driver into the
	// OnMigrant hook under Handle — the hook body is identical in
	// Replay, which stages from the migrant sidecar log instead.
	var staged *core.Solution
	coreTimeout := 0.0
	if cfg.LeaseTimeout > 0 {
		coreTimeout = cfg.LeaseTimeout.Seconds()
	}
	mcfg := master.Config{
		Budget:       cfg.Evaluations,
		LeaseTimeout: coreTimeout,
		Policy:       master.EagerOffspring,
		// Workers hold deep copies of granted work (wire frames encode
		// the solution), so expired-lease work is reissued in place.
		ReuseOnResubmit: true,
		Alg:             alg,
		Meters:          ic.meters,
		Log:             ic.log,
		OnAcceptFrom:    ic.adv.ObserveAccept,
		OnMigrant: func(source int, epoch uint64) {
			if staged != nil {
				// A migrant is folded in inside its own measured critical
				// section: T_A but no function evaluation, as on the DES.
				alg.Enter()
				b.InjectEvaluated(staged)
				alg.Leave(false)
				staged = nil
			}
		},
	}
	if ic.trace != nil {
		mcfg.Tracer = ic.trace
	}
	if q := ic.quality; q != nil {
		q.Attach(b)
		mcfg.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
	m := master.NewCore(mcfg)

	var exec func(acts []master.Action)
	// gone declares a dropped session's worker dead.
	gone := func(s *wire.Session, why error) {
		ic.adv.SetLive(host.Live())
		cfg.logf("federation: island %d worker %d gone: %v", ic.isl, s.ID, why)
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
					if ic.trace != nil {
						// The measured send time is the direct T_C sample: it
						// feeds both the trace (per-evaluation attribution)
						// and the advisor fit, so borgview trace's per-term means
						// and /debug/scaling agree by construction.
						ic.trace.ObserveTCSend(a.Item.ID, tc)
						ic.adv.ObserveTC(tc)
					}
				}
			case master.ActStop:
				host.Stop(a.Worker)
			case master.ActComplete:
				elapsedAt = since()
				ic.log.SetElapsed(elapsedAt)
			}
		}
		for _, f := range failed {
			gone(f.s, f.err)
		}
	}

	pred := (ic.isl - 1 + cfg.Islands) % cfg.Islands
	migRng := NewMigrationRNG(cfg.Seed, ic.isl)
	pendingMig := make(map[uint64]*wire.Migrant)
	var lastEpoch uint64
	var migBuf []byte // frame scratch, reused per send
	var deltaSeq uint64
	var migErr error

	writeFrame := func(nc net.Conn, msg wire.Message) error {
		migBuf = wire.AppendFrame(migBuf[:0], msg)
		if err := nc.SetWriteDeadline(time.Now().Add(cfg.migrationTimeout())); err != nil {
			return err
		}
		_, err := nc.Write(migBuf)
		return err
	}

	// takeMigrant blocks until the predecessor's epoch-e migrant
	// arrives, buffering early migrants of later epochs. It runs inside
	// the result handler, so it holds the loop lock throughout: every
	// other session's events wait behind it, in arrival order, and so
	// do ticks.
	takeMigrant := func(epoch uint64) (*wire.Migrant, error) {
		if mg, ok := pendingMig[epoch]; ok {
			delete(pendingMig, epoch)
			return mg, nil
		}
		timeout := time.NewTimer(cfg.migrationTimeout())
		defer timeout.Stop()
		for {
			select {
			case mg := <-migrants:
				if mg.Epoch == epoch {
					return mg, nil
				}
				pendingMig[mg.Epoch] = mg
			case <-timeout.C:
				return nil, fmt.Errorf("migration epoch %d: no migrant from island %d within %v", epoch, pred, cfg.migrationTimeout())
			}
		}
	}

	// afterAccept implements the synchronous epoch protocol at accept
	// count n, plus the root delta stream. Send-before-wait keeps the
	// ring deadlock-free; the fixed injection point keeps the event log
	// canonical across transports.
	afterAccept := func(n uint64, accepted *core.Solution) {
		if migrate && n > 0 && n%cfg.MigrationEvery == 0 {
			epoch := n / cfg.MigrationEvery
			if epoch > lastEpoch {
				lastEpoch = epoch
				mg := Emigrant(ic.isl, epoch, b.Archive(), migRng, accepted)
				// The emigrant span context rides the wire to the ring
				// successor, which links it into its own forest — the
				// cross-island flow arrow in a merged Chrome export.
				mg.Trace = ic.trace.ObserveEmigrant(epoch, since())
				if err := writeFrame(succ, mg); err != nil {
					migErr = fmt.Errorf("send migrant epoch %d: %w", epoch, err)
					return
				}
				ic.mlog.Record(mg)
				ir.migrants++
				ic.meters.Migrants.Inc()
				if !m.Done() {
					in, err := takeMigrant(epoch)
					if err != nil {
						migErr = err
						return
					}
					ic.trace.LinkMigrant(epoch, in.Trace)
					staged = MigrantSolution(in)
					exec(m.Handle(master.Event{Kind: master.EvMigrant, Worker: int(in.Island), Item: epoch, At: since()}))
				}
			}
		}
		if ic.trace != nil && n%stragglerCheckEvery == 0 {
			// Poll the straggler detector so flagged workers start
			// force-sampling even when nothing serves /debug/scaling.
			ic.adv.Report()
		}
		if rootConn != nil && n > 0 && n%cfg.DeltaEvery == 0 {
			deltaSeq++
			if err := writeFrame(rootConn, archiveDelta(ic.isl, deltaSeq, n, b.Archive())); err != nil {
				cfg.logf("federation: island %d delta: %v", ic.isl, err)
				rootConn.Close()
				rootConn = nil
			}
		}
	}

	// over (loop-locked) ends the island: once the budget completes or
	// the run fails, the handler ignores whatever still arrives until
	// Close stops the readers.
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
				cfg.logf("federation: island %d worker %d gone: replaced by reconnect", ic.isl, old.ID)
			}
			ic.adv.SetLive(host.Live())
			cfg.logf("federation: island %d worker %d joined (%d live)", ic.isl, s.ID, host.Live())
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
			var accepted *core.Solution
			if worker, item, live := m.Lease(msg.Lease); live && worker == int(s.ID) {
				evalSec := msg.Fill(item)
				accepted = item.S
				ic.meters.TF.ObserveExemplar(evalSec, item.SampledTraceID())
				ic.adv.ObserveTF(int(s.ID), evalSec)
				ic.trace.ObserveTF(item.ID, evalSec)
				curItem = item.ID
			}
			prev := m.Completed()
			exec(m.Handle(master.Event{Kind: master.EvResult, Worker: int(s.ID), Item: msg.Lease, At: since()}))
			if n := m.Completed(); n > prev {
				afterAccept(n, accepted)
				// Quality cadence: the trigger detours through the master
				// so the sample point lands in this island's BMEL log
				// (replayable via ReplayQuality).
				if q := ic.quality; q != nil && migErr == nil && !m.Done() && q.Due(n, since()) {
					exec(m.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: since()}))
				}
			}
		}
		if m.Done() || migErr != nil {
			finish()
		}
	}
	host.Serve(ic.workerLn, connOpt, cfg.Problem, handle)

	var tickC <-chan time.Time
	if cfg.LeaseTimeout > 0 {
		ticker := time.NewTicker(wire.TickInterval(cfg.LeaseTimeout))
		defer ticker.Stop()
		tickC = ticker.C
	}
	wall := time.NewTimer(cfg.wallLimit())
	defer wall.Stop()
	tick := func() {
		if !over {
			exec(m.Handle(master.Event{Kind: master.EvTick, At: since()}))
		}
	}
	wallLimit := func() {
		if !over {
			migErr = fmt.Errorf("wall limit %v reached with %d/%d evaluations", cfg.wallLimit(), m.Completed(), cfg.Evaluations)
			finish()
		}
	}
	for waiting := true; waiting; {
		select {
		case <-finished:
			waiting = false
		case <-tickC:
			host.Do(tick)
		case <-wall.C:
			host.Do(wallLimit)
		}
	}
	// Stops every worker the host ever accepted; no handler runs after
	// it, so the state below is final.
	host.Close(true)

	ir.stats = m.Stats()
	ir.peak = m.Peak()
	ir.elapsed = elapsedAt
	if ir.elapsed == 0 {
		ir.elapsed = since()
	}
	return ir, migErr
}

// stragglerCheckEvery is how many accepts pass between polls of the
// advisor's straggler detector when tracing is on.
const stragglerCheckEvery = 64

// archiveDelta packages the most recent archive members (capped at
// deltaCap) as a root-bound Delta frame.
const deltaCap = 32

func archiveDelta(isl int, seq, completed uint64, arch *core.Archive) *wire.Delta {
	members := arch.Members()
	if len(members) > deltaCap {
		members = members[len(members)-deltaCap:]
	}
	d := &wire.Delta{Island: uint32(isl), Seq: seq, Completed: completed}
	for _, s := range members {
		d.Members = append(d.Members, wire.DeltaMember{
			Operator: int32(s.Operator),
			Vars:     s.Vars,
			Objs:     s.Objs,
			Constrs:  s.Constrs,
		})
	}
	return d
}
