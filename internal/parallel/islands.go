package parallel

import (
	"fmt"

	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
)

// IslandsConfig parameterizes the hierarchical (multi-island) topology
// the paper's conclusion proposes as future work: several smaller
// asynchronous master-slave Borg instances running concurrently, each
// on its own processor subset, optionally exchanging archive members
// in a ring. Splitting avoids single-master saturation when T_F is
// small relative to 2·T_C + T_A (Eq. 3).
type IslandsConfig struct {
	// Base configures each island (Processors is the per-island P,
	// Evaluations the per-island budget). Stragglers and fault plans
	// are not supported at the island level; CaptureTimings is, and
	// aggregates every island's T_A/T_F samples into the merged result.
	Base Config
	// Islands is the number of concurrent instances (>= 1).
	Islands int
	// MigrationEvery exchanges one archive member to the next island
	// in the ring after every such number of accepted evaluations on
	// an island (0 disables migration), on the synchronous epoch
	// protocol the TCP federation runs too (federation.Migration).
	MigrationEvery uint64
	// Logs, when non-nil, must have length Islands: island isl records
	// its BMEL event stream into Logs[isl]. MigrantLogs likewise
	// captures outgoing migrants per island. For the same seed these
	// match the TCP federation's logs canonically — the cross-
	// transport equivalence the federation tests pin down.
	Logs        []*master.Log
	MigrantLogs []*federation.MigrantLog
}

// IslandsResult summarizes a multi-island run.
type IslandsResult struct {
	// ElapsedTime is the virtual time at which the last island
	// finished its budget.
	ElapsedTime float64
	// TotalEvaluations across all islands.
	TotalEvaluations uint64
	// Islands holds each island's final Borg instance.
	Islands []*core.Borg
	// IslandElapsed is each island's own finish time.
	IslandElapsed []float64
	// Migrants is the number of archive members exchanged.
	Migrants uint64
	// MergedArchive is the ε-nondominated union of all island
	// archives, and MergedFront its objective vectors.
	MergedArchive *core.Archive
	MergedFront   [][]float64

	// MeanTA and MeanTF are the observed timing means across all
	// islands; TASamples and TFSamples hold the raw samples (island-
	// major, then worker-rank order) when Base.CaptureTimings was set.
	MeanTA, MeanTF       float64
	TASamples, TFSamples []float64
}

// RunIslands executes Islands concurrent asynchronous master-slave
// Borg instances under one virtual clock. Each island is RunAsync's
// master process on its own Processors ranks, with its own instance of
// the shared state machine (internal/master) and worker ids local to
// the island; a one-island run is RunAsync. Base.Advisor, Trace,
// Quality and Protocol are not used (Logs records the islands' event
// streams). With migration enabled, island masters run
// federation.Migration over the cluster mailbox, each emigrant frame
// costing a T_C to send; the EvMigrant fold-ins (T_A, no evaluation)
// are logged, so migration is part of the replayable BMEL stream.
func RunIslands(cfg IslandsConfig) (*IslandsResult, error) {
	if cfg.Islands < 1 {
		return nil, fmt.Errorf("parallel: need at least 1 island, got %d", cfg.Islands)
	}
	base := cfg.Base
	if err := base.normalize(); err != nil {
		return nil, err
	}
	if base.StragglerFraction != 0 {
		return nil, fmt.Errorf("parallel: RunIslands does not support stragglers")
	}
	if !base.Fault.Empty() {
		return nil, fmt.Errorf("parallel: RunIslands does not support fault injection; use RunAsync or RunSync")
	}
	if cfg.Logs != nil && len(cfg.Logs) != cfg.Islands {
		return nil, fmt.Errorf("parallel: Logs must have one entry per island")
	}
	if cfg.MigrantLogs != nil && len(cfg.MigrantLogs) != cfg.Islands {
		return nil, fmt.Errorf("parallel: MigrantLogs must have one entry per island")
	}

	k := cfg.Islands
	eng := des.New()
	eng.SetTrace(base.Events)
	meters := master.NewMeters(base.Metrics)
	cl := cluster.New(eng, cluster.Config{Nodes: k * base.Processors, Seed: base.Seed})

	res := &IslandsResult{
		Islands:       make([]*core.Borg, k),
		IslandElapsed: make([]float64, k),
	}
	// Island isl is RunAsync's master on its own Processors ranks, seeded
	// with the island's algorithm seed (the one RunAsync's streams derive
	// from for island 0), on a ring of k.
	ams := make([]*asyncMaster, k)
	for isl := 0; isl < k; isl++ {
		icfg := base
		icfg.Seed = federation.IslandAlgSeed(base.Seed, isl)
		icfg.Protocol, icfg.Advisor, icfg.Trace, icfg.Quality = nil, nil, nil, nil
		r := ring{seed: base.Seed, isl: isl, islands: k, every: cfg.MigrationEvery}
		if cfg.Logs != nil {
			icfg.Protocol = cfg.Logs[isl]
		}
		if cfg.MigrantLogs != nil {
			r.log = cfg.MigrantLogs[isl]
		}
		am, err := startMaster(cl, &icfg, meters, r, nil)
		if err != nil {
			return nil, err
		}
		ams[isl], res.Islands[isl] = am, am.b
	}

	eng.Run()
	eng.Shutdown()

	// Aggregate per-island counts, finish times and timing observations
	// (island-major order).
	var ta, tf master.Tally
	for isl, am := range ams {
		res.TotalEvaluations += am.b.Evaluations()
		res.IslandElapsed[isl] = am.elapsed
		res.ElapsedTime = max(res.ElapsedTime, am.elapsed)
		res.Migrants += am.mig.Sent()
		ta.Merge(am.terms.TA)
		tf.Merge(am.terms.TF)
	}
	res.MeanTA, res.TASamples = ta.Mean(), ta.Samples
	res.MeanTF, res.TFSamples = tf.Mean(), tf.Samples

	// Merge: ε-nondominated union of all island archives, via the same
	// helper the federation (and its replays) use.
	res.MergedArchive = federation.MergeArchives(base.Algorithm.Epsilons, res.Islands)
	res.MergedFront = res.MergedArchive.Objectives()
	return res, nil
}
