package parallel

import (
	"fmt"
	"net"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
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
	if cfg.TA != nil {
		return nil, fmt.Errorf("parallel: a T_A distribution requires a virtual-time driver (RunAsync/RunSync/RunIslands); the distributed master's T_A is its wall-clock time")
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
	meters := master.NewMeters(cfg.Metrics)
	// One meter for the fleet: results arrive one at a time under the
	// host's loop lock, and each names its worker.
	terms := master.NewTerms(master.Wall, master.TermsConfig{
		Meters: meters, Advisor: adv, Trace: cfg.Trace, Capture: cfg.CaptureTimings,
	})

	// Accept and Suggest are metered separately (the lazy policy splits
	// them across the result and dispatch paths); per completed
	// evaluation they sum to the paper's T_A.
	mcfg := master.Config{
		Budget: cfg.Evaluations,
		Policy: master.LazyOffspring,
		Alg:    terms.Bracket(b, nil),
		Meters: meters,
		Log:    cfg.Protocol,
	}
	cfg.Quality.Attach(b)
	sm := &federation.SocketMaster{
		Terms: terms, Advisor: adv, Quality: cfg.Quality,
		Start: time.Now(), LeaseTimeout: leaseTimeout, WallLimit: dcfg.WallLimit,
		Name: "parallel", Logf: dcfg.Logf,
	}
	m, elapsed, err := sm.Run(mcfg, listener, dcfg.Conn, cfg.Problem)
	if err != nil && dcfg.Logf != nil {
		// Only the wall limit ends the run early; the result says how far
		// it got.
		dcfg.Logf("parallel: %v of %d", err, cfg.Evaluations)
	}

	st := m.Stats()
	res := &Result{Final: b, ElapsedTime: elapsed}
	res.Evaluations = st.Completed
	res.Completed = st.Completed >= cfg.Evaluations
	res.Resubmissions = st.Resubmissions
	res.LostEvaluations = st.Lost
	res.DuplicateResults = st.Duplicates
	res.Processors = m.Peak() + 1
	res.setTerms(terms)
	res.MasterBusy = terms.TA.Sum
	if res.ElapsedTime > 0 {
		res.MasterUtilization = res.MasterBusy / res.ElapsedTime
	}
	// Accept and Suggest are metered separately here; per completed
	// evaluation they sum to the paper's T_A.
	if st.Completed > 0 {
		res.MeanTA = terms.TA.Sum / float64(st.Completed)
	}
	return res, nil
}
