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

// migrationTimeout bounds every ring wait — the successor dial, a
// frame write, each wait for the predecessor's next migrant — failing
// the island rather than hanging the ring.
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

// runIsland is one island master: the asynchronous socket master over
// the island's TCP worker pool, with the synchronous migration-epoch
// protocol on the ring (see the package comment) as its AfterAccept
// hook. It blocks until the island's budget completes or the run fails.
func runIsland(ic islandContext) (islandResult, error) {
	cfg := ic.cfg
	b := ic.b
	ic.adv.Configure(0, cfg.Evaluations)

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

	// The worker host starts serving once the ring is dialled (workers
	// that connect earlier wait in the listen backlog).
	var succ net.Conn
	if cfg.MigrationEvery > 0 && cfg.Islands > 1 {
		var err error
		succ, err = dialPeer(ic.succAddr, time.Now().Add(migrationTimeout))
		if err != nil {
			ic.workerLn.Close() // never served, so no host Close will
			return islandResult{}, err
		}
		defer succ.Close()
	}
	// T_A is the wall-clock critical section, optionally stretched by a
	// sampled SimulateTA sleep (the knob that drags the per-island P_UB
	// into loopback-test range).
	terms := master.NewTerms(master.Wall, master.TermsConfig{Meters: ic.meters, Advisor: ic.adv, Trace: ic.trace})
	alg := terms.Bracket(b, nil)
	if cfg.SimulateTA != nil {
		simR := rng.New(cfg.Seed ^ (uint64(ic.isl+1) * 0x7461)) // "ta"
		alg.Leave = func(accept bool) {
			time.Sleep(time.Duration(cfg.SimulateTA.Sample(simR) * float64(time.Second)))
			terms.Leave(accept)
		}
	}

	mig := NewMigration(cfg.Seed, ic.isl, cfg.Islands, cfg.MigrationEvery, b, alg, ic.mlog, ic.meters.Migrants)

	mcfg := master.Config{
		Budget:    cfg.Evaluations,
		Policy:    master.EagerOffspring,
		Alg:       alg,
		Meters:    ic.meters,
		Log:       ic.log,
		OnMigrant: mig.Fold,
	}
	ic.quality.Attach(b)
	sm := &SocketMaster{
		Terms: terms, Advisor: ic.adv, Quality: ic.quality,
		Start: time.Now(), LeaseTimeout: cfg.LeaseTimeout, WallLimit: cfg.WallLimit,
		Name: fmt.Sprintf("federation: island %d", ic.isl), Logf: cfg.Logf,
	}

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

	// The island's migration hook: the epoch protocol at accept count n
	// over the ring link.
	sm.AfterAccept = func(n uint64) error {
		if epoch, ok := mig.Boundary(n); ok {
			ic.trace.ObserveEmigrant(epoch, sm.since())
			frame := mig.Emigrant()
			if err := write(succ, frame); err != nil {
				return fmt.Errorf("send migrant epoch %d: %w", epoch, err)
			}
			in, err := mig.Await(sm.core.Done(), next)
			if err != nil {
				return err
			}
			if in != nil {
				sm.handle(master.Event{Kind: master.EvMigrant, Worker: int(in.Island), Item: epoch, At: sm.since()})
			}
		}
		if ic.trace != nil && n%stragglerCheckEvery == 0 {
			// Poll the straggler detector so flagged workers start
			// force-sampling even when nothing serves /debug/scaling.
			ic.adv.Report()
		}
		return nil
	}

	m, elapsed, err := sm.Run(mcfg, ic.workerLn, cfg.Conn, cfg.Problem)
	return islandResult{elapsed: elapsed, stats: m.Stats(), migrants: mig.Sent(), peak: m.Peak()}, err
}

// stragglerCheckEvery is how many accepts pass between polls of the
// advisor's straggler detector when tracing is on.
const stragglerCheckEvery = 64
