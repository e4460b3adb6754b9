package federation

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// Config parameterizes a TCP federation run: k islands in one process,
// each with its own worker listener (for borgd daemons or in-process
// workers) and a ring peer link for migration.
type Config struct {
	// Problem and Algorithm configure each island's Borg instance;
	// island isl runs with seed IslandAlgSeed(Seed, isl).
	Problem   problems.Problem
	Algorithm core.Config
	Seed      uint64

	// Islands is the number of island masters (>= 1).
	Islands int
	// Evaluations is the per-island evaluation budget.
	Evaluations uint64
	// MigrationEvery exchanges one archive member with the ring
	// successor after every such number of accepted evaluations on an
	// island (0 disables migration).
	MigrationEvery uint64

	// Workers is the number of in-process workers spawned per island
	// (0 means external borgd daemons are expected to dial in; use
	// OnListen to learn the per-island addresses).
	Workers int
	// WorkerDelay is an artificial per-evaluation hold for in-process
	// workers — the controlled T_F of the paper's experiment design.
	WorkerDelay stats.Distribution
	// SimulateTA, when set, is sampled and slept inside every master
	// critical section on top of the real algorithm time — it drags
	// the per-island P_UB down to something a loopback test can
	// saturate.
	SimulateTA stats.Distribution

	// ListenAddrs optionally pins each island's worker listen address
	// (default 127.0.0.1:0). OnListen, when set, receives the bound
	// address of every island before workers are expected.
	ListenAddrs []string
	OnListen    func(island int, addr string)

	// LeaseTimeout bounds outstanding evaluations (0 disables expiry —
	// in-process fleets do not need the fault machinery).
	LeaseTimeout time.Duration
	// WallLimit aborts a run that makes no progress (default 5m).
	WallLimit time.Duration
	// Conn tunes every connection the federation makes.
	Conn wire.Options

	// Logs, when non-nil, must have length Islands: island isl records
	// its BMEL event stream into Logs[isl]. MigrantLogs likewise
	// captures each island's outgoing migrants — together they make
	// the run replayable (see Replay).
	Logs        []*master.Log
	MigrantLogs []*MigrantLog

	// Tracers, when non-nil, must have length Islands (nil entries
	// disable tracing for that island): island isl's master records
	// one trace per evaluation, and its emigrants and migrants, into
	// Tracers[isl], which attributes the paper's model terms (T_C, T_F,
	// T_A) per evaluation; nothing about a trace goes on the wire. Each
	// island's advisor force-samples workers it flags as stragglers.
	// Pass the forests to obs.WriteChromeForests in island order.
	Tracers []*obs.Collector

	// Federation, when set, is the advisor roll-up the per-island
	// advisors attach to (serve its Handler while the run is live);
	// nil creates one, returned in Result.Federation.
	Federation *advisor.Federation

	// Quality, when non-nil, must have length Islands (nil entries
	// disable quality sampling for that island): island isl snapshots
	// its search quality (hypervolume, ε-progress, operator adaptation)
	// into Quality[isl] on the sampler's cadence. Give each sampler its
	// own GaugePrefix (e.g. "island0.") when they share a registry.
	// The sample points ride the island's BMEL log as EvQuality events,
	// so ReplayQuality regenerates every island's timeline byte for
	// byte.
	Quality []*obs.QualitySampler

	// Metrics receives the shared protocol counters of all islands.
	Metrics *obs.Registry
	// Logf, when set, receives lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Result summarizes a federation run.
type Result struct {
	// ElapsedTime is the wall time (seconds) at which the last island
	// completed its budget.
	ElapsedTime float64
	// TotalEvaluations across all islands (migrant injections are not
	// charged, exactly as in the DES islands driver).
	TotalEvaluations uint64
	// Islands holds each island's final Borg instance; IslandElapsed
	// and IslandStats each island's finish time and protocol counters.
	Islands       []*core.Borg
	IslandElapsed []float64
	IslandStats   []master.Stats
	// Processors is the federation-wide processor count: one master
	// plus the peak worker pool per island.
	Processors int
	// Migrants counts archive members sent around the ring.
	Migrants uint64
	// MergedFront is the ε-nondominated union of all island archives
	// (objective vectors), and MergedArchive the archive itself.
	MergedFront   [][]float64
	MergedArchive *core.Archive
	// Federation is the advisor roll-up with every island's advisor
	// attached — Report() gives the federated scalability analysis.
	Federation *advisor.Federation
}

// Run executes the federation: k island masters in this process, their
// ring peer links and optional in-process workers. It blocks until every island completes its budget (or
// fails), then computes the merged Result.
func Run(cfg Config) (*Result, error) {
	if cfg.Problem == nil {
		return nil, fmt.Errorf("federation: Problem is required")
	}
	if cfg.Islands < 1 {
		return nil, fmt.Errorf("federation: need at least 1 island, got %d", cfg.Islands)
	}
	if cfg.Evaluations == 0 {
		return nil, fmt.Errorf("federation: Evaluations must be positive")
	}
	if cfg.Logs != nil && len(cfg.Logs) != cfg.Islands {
		return nil, fmt.Errorf("federation: Logs must have one entry per island")
	}
	if cfg.MigrantLogs != nil && len(cfg.MigrantLogs) != cfg.Islands {
		return nil, fmt.Errorf("federation: MigrantLogs must have one entry per island")
	}
	if cfg.Tracers != nil && len(cfg.Tracers) != cfg.Islands {
		return nil, fmt.Errorf("federation: Tracers must have one entry per island")
	}
	if cfg.Quality != nil && len(cfg.Quality) != cfg.Islands {
		return nil, fmt.Errorf("federation: Quality must have one entry per island")
	}
	if cfg.Conn.Metrics == nil {
		cfg.Conn.Metrics = cfg.Metrics
	}
	if cfg.WallLimit <= 0 {
		cfg.WallLimit = 5 * time.Minute
	}
	k := cfg.Islands

	fed := cfg.Federation
	if fed == nil {
		fed = advisor.NewFederation()
	}

	// Bind every listener before any island runs, so ring dials and
	// OnListen callbacks cannot race the startup order.
	workerLns := make([]net.Listener, k)
	peerLns := make([]net.Listener, k)
	peerAddrs := make([]string, k)
	closeAll := func() {
		for _, ln := range workerLns {
			if ln != nil {
				ln.Close()
			}
		}
		for _, ln := range peerLns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for isl := 0; isl < k; isl++ {
		addr := "127.0.0.1:0"
		if cfg.ListenAddrs != nil && cfg.ListenAddrs[isl] != "" {
			addr = cfg.ListenAddrs[isl]
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("federation: island %d listen: %w", isl, err)
		}
		workerLns[isl] = ln
		pln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("federation: island %d peer listen: %w", isl, err)
		}
		peerLns[isl] = pln
		peerAddrs[isl] = pln.Addr().String()
	}

	res := &Result{
		Islands:       make([]*core.Borg, k),
		IslandElapsed: make([]float64, k),
		IslandStats:   make([]master.Stats, k),
		Federation:    fed,
	}
	meters := master.NewMeters(cfg.Metrics)

	irs := make([]islandResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for isl := 0; isl < k; isl++ {
		algCfg := cfg.Algorithm
		algCfg.Seed = IslandAlgSeed(cfg.Seed, isl)
		b, err := core.New(cfg.Problem, algCfg)
		if err != nil {
			closeAll()
			return nil, err
		}
		res.Islands[isl] = b

		advCfg := advisor.Config{Budget: cfg.Evaluations}
		var trace *obs.Collector
		if cfg.Tracers != nil {
			trace = cfg.Tracers[isl]
		}
		if trace != nil {
			// Advisor-flagged stragglers are always traced, whatever the
			// sampling rate says.
			advCfg.OnStraggler = trace.ForceWorker
		}
		adv := advisor.New(advCfg)
		fed.Attach(adv)

		ic := islandContext{
			cfg:      &cfg,
			isl:      isl,
			b:        b,
			adv:      adv,
			meters:   meters,
			workerLn: workerLns[isl],
			peerLn:   peerLns[isl],
			succAddr: peerAddrs[(isl+1)%k],
			trace:    trace,
		}
		if cfg.Logs != nil {
			ic.log = cfg.Logs[isl]
		}
		if cfg.Quality != nil {
			ic.quality = cfg.Quality[isl]
		}
		if cfg.MigrantLogs != nil {
			ic.mlog = cfg.MigrantLogs[isl]
		}
		if cfg.OnListen != nil {
			cfg.OnListen(isl, workerLns[isl].Addr().String())
		}
		wg.Add(1)
		go func(isl int, ic islandContext) {
			defer wg.Done()
			irs[isl], errs[isl] = runIsland(ic)
		}(isl, ic)
	}

	// In-process worker fleet: Workers daemons per island, identical to
	// external borgd processes but cancelled when the run ends.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workerWG sync.WaitGroup
	for isl := 0; isl < k && cfg.Workers > 0; isl++ {
		addr := workerLns[isl].Addr().String()
		for w := 0; w < cfg.Workers; w++ {
			workerWG.Add(1)
			go func(isl, w int, addr string) {
				defer workerWG.Done()
				wcfg := wire.WorkerConfig{
					Addr:  addr,
					Delay: cfg.WorkerDelay,
					Seed:  cfg.Seed ^ (uint64(isl*1024+w+1) * 0x9e3779b97f4a7c15),
					Conn:  cfg.Conn,
					Resolve: func(string) (problems.Problem, error) {
						return cfg.Problem, nil
					},
				}
				if err := wire.RunWorker(ctx, wcfg); err != nil && ctx.Err() == nil {
					cfg.logf("federation: island %d worker %d: %v", isl, w, err)
				}
			}(isl, w, addr)
		}
	}

	wg.Wait()
	cancel()
	workerWG.Wait()

	for isl := 0; isl < k; isl++ {
		if errs[isl] != nil {
			return nil, fmt.Errorf("federation: island %d: %w", isl, errs[isl])
		}
	}
	for isl := 0; isl < k; isl++ {
		res.TotalEvaluations += res.Islands[isl].Evaluations()
		res.IslandElapsed[isl] = irs[isl].elapsed
		res.IslandStats[isl] = irs[isl].stats
		res.Migrants += irs[isl].migrants
		res.Processors += 1 + irs[isl].peak
		if irs[isl].elapsed > res.ElapsedTime {
			res.ElapsedTime = irs[isl].elapsed
		}
	}
	res.MergedArchive = MergeArchives(cfg.Algorithm.Epsilons, res.Islands)
	res.MergedFront = res.MergedArchive.Objectives()
	return res, nil
}
