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

// migrationTimeout bounds every ring wait — the successor and root
// dials, a frame write, each wait for the predecessor's next migrant —
// failing the island rather than hanging the ring.
const migrationTimeout = 30 * time.Second

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

	// Worker transport, as in the distributed driver: the host calls the
	// island's handler for every session event under its loop lock, and
	// ticks and the wall limit enter through Do. It starts serving once
	// the ring is dialled (workers that connect earlier wait in the
	// listen backlog).
	var host wire.Host

	// Peer link: raw migrant frames from the ring predecessor, which may
	// run epochs ahead; the buffer lets its frames wait for the barrier's
	// next, the channel's only consumer.
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

	var succ net.Conn
	if cfg.MigrationEvery > 0 && cfg.Islands > 1 {
		var err error
		succ, err = dialPeer(ic.succAddr, time.Now().Add(migrationTimeout))
		if err != nil {
			ic.workerLn.Close() // never served, so no host Close will
			return ir, err
		}
		defer succ.Close()
	}
	var rootConn net.Conn
	if ic.root != nil && cfg.DeltaEvery > 0 {
		var err error
		rootConn, err = dialPeer(ic.root.Addr(), time.Now().Add(migrationTimeout))
		if err != nil {
			ic.workerLn.Close()
			return ir, err
		}
		defer rootConn.Close()
	}

	// T_A is the wall-clock critical section, optionally stretched by a
	// sampled SimulateTA sleep (the knob that drags the per-island P_UB
	// into loopback-test range).
	terms := master.NewTerms(master.TermsConfig{Meters: ic.meters, Advisor: ic.adv, Trace: ic.trace})
	alg := terms.Bracket(b, nil)
	if cfg.SimulateTA != nil {
		simR := rng.New(cfg.Seed ^ (uint64(ic.isl+1) * 0x7461)) // "ta"
		alg.Leave = func(accept bool) {
			time.Sleep(time.Duration(cfg.SimulateTA.Sample(simR) * float64(time.Second)))
			terms.Leave(accept)
		}
	}

	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }
	var elapsedAt float64

	mig := NewMigration(cfg.Seed, ic.isl, cfg.Islands, cfg.MigrationEvery, b, alg, ic.mlog, ic.meters.Migrants)

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
		OnMigrant:       mig.Fold,
		Tracer:          terms.Tracer(),
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
					terms.Sent(a.Item, tc)
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

	var deltaBuf []byte // delta frame scratch, reused per send
	var deltaSeq uint64
	var migErr error

	write := func(nc net.Conn, frame []byte) error {
		if err := nc.SetWriteDeadline(time.Now().Add(migrationTimeout)); err != nil {
			return err
		}
		_, err := nc.Write(frame)
		return err
	}

	// next is the ring's wall-clock wait for the predecessor's next
	// frame. It runs inside the result handler, so it holds the loop
	// lock throughout: every other session's events wait behind it, in
	// arrival order, and so do ticks.
	next := func() (*wire.Migrant, error) {
		timeout := time.NewTimer(migrationTimeout)
		defer timeout.Stop()
		select {
		case mg := <-migrants:
			return mg, nil
		case <-timeout.C:
			return nil, fmt.Errorf("timed out after %v", migrationTimeout)
		}
	}

	// afterAccept runs the migration protocol at accept count n over the
	// ring link, plus the root delta stream.
	afterAccept := func(n uint64) {
		if epoch, ok := mig.Boundary(n); ok {
			// The emigrant span context rides the wire to the ring
			// successor, which links it into its own forest — the
			// cross-island flow arrow in a merged Chrome export.
			frame := mig.Emigrant(ic.trace.ObserveEmigrant(epoch, since()))
			if err := write(succ, frame); err != nil {
				migErr = fmt.Errorf("send migrant epoch %d: %w", epoch, err)
				return
			}
			in, err := mig.Await(m.Done(), next)
			if err != nil {
				migErr = err
				return
			}
			if in != nil {
				ic.trace.LinkMigrant(epoch, in.Trace)
				exec(m.Handle(master.Event{Kind: master.EvMigrant, Worker: int(in.Island), Item: epoch, At: since()}))
			}
		}
		if ic.trace != nil && n%stragglerCheckEvery == 0 {
			// Poll the straggler detector so flagged workers start
			// force-sampling even when nothing serves /debug/scaling.
			ic.adv.Report()
		}
		if rootConn != nil && n > 0 && n%cfg.DeltaEvery == 0 {
			deltaSeq++
			deltaBuf = wire.AppendFrame(deltaBuf[:0], archiveDelta(ic.isl, deltaSeq, n, b.Archive()))
			if err := write(rootConn, deltaBuf); err != nil {
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
			if worker, item, live := m.Lease(msg.Lease); live && worker == int(s.ID) {
				evalSec := msg.Fill(item)
				terms.Evaluated(int(s.ID), item, evalSec)
				terms.Queued(item, e.Wait)
			}
			prev := m.Completed()
			exec(m.Handle(master.Event{Kind: master.EvResult, Worker: int(s.ID), Item: msg.Lease, At: since()}))
			if n := m.Completed(); n > prev {
				afterAccept(n)
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
	host.Serve(ic.workerLn, cfg.Conn, cfg.Problem, handle)

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

	ir.migrants = mig.Sent()
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
