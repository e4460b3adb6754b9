package parallel

import (
	"fmt"

	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/wire"
)

// IslandsConfig parameterizes the hierarchical (multi-island) topology
// the paper's conclusion proposes as future work: several smaller
// asynchronous master-slave Borg instances running concurrently, each
// on its own processor subset, optionally exchanging archive members
// in a ring. Splitting avoids single-master saturation when T_F is
// small relative to 2·T_C + T_A (Eq. 3).
type IslandsConfig struct {
	// Base configures each island (Processors is the per-island P,
	// Evaluations the per-island budget). Checkpoint hooks, stragglers
	// and fault plans are not supported at the island level;
	// CaptureTimings is, and aggregates every island's T_A/T_F samples
	// into the merged result.
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
	// MergedFront is the ε-nondominated union of all island
	// archives (objective vectors).
	MergedFront [][]float64

	// MeanTA and MeanTF are the observed timing means across all
	// islands; TASamples and TFSamples hold the raw samples (island-
	// major, then worker-rank order) when Base.CaptureTimings was set.
	MeanTA, MeanTF       float64
	TASamples, TFSamples []float64
}

// Efficiency returns T_S / (P_total · T_P) treating the union of
// islands as one machine, using the configured mean timings.
func (r *IslandsResult) Efficiency(meanTF, meanTA float64, totalProcessors int) float64 {
	if r.ElapsedTime == 0 || totalProcessors == 0 {
		return 0
	}
	ts := float64(r.TotalEvaluations) * (meanTF + meanTA)
	return ts / (float64(totalProcessors) * r.ElapsedTime)
}

// RunIslands executes Islands concurrent asynchronous master-slave
// Borg instances under one virtual clock. Each island master runs its
// own instance of the shared state machine (internal/master) with
// worker ids local to the island; the driver maps them onto global
// cluster ranks. With migration enabled, island masters run
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
	if base.TA == nil {
		return nil, fmt.Errorf("parallel: RunIslands requires an explicit TA distribution (measured TA is ambiguous across concurrent masters)")
	}
	if base.CheckpointEvery != 0 || base.StragglerFraction != 0 {
		return nil, fmt.Errorf("parallel: RunIslands does not support checkpoints or stragglers")
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
	perP := base.Processors
	eng := des.New()
	installTrace(eng, &base)
	meters := master.NewMeters(base.Metrics)
	cl := cluster.New(eng, cluster.Config{Nodes: k * perP, Seed: base.Seed})

	res := &IslandsResult{
		Islands:       make([]*core.Borg, k),
		IslandElapsed: make([]float64, k),
	}

	// Migrant frames ride the mailbox outside the canonical protocol
	// vocabulary, as encoded wire bytes — the same bytes the TCP
	// federation puts on the network.
	const tagMigrant = 100

	// One meter per island master, which its workers report T_F to;
	// merged in island order after the run.
	terms := make([]*master.Terms, k)

	for isl := 0; isl < k; isl++ {
		isl := isl
		masterRank := isl * perP
		algCfg := base.Algorithm
		algCfg.Seed = federation.IslandAlgSeed(base.Seed, isl)
		b, err := core.New(base.Problem, algCfg)
		if err != nil {
			return nil, err
		}
		res.Islands[isl] = b

		t := master.NewTerms(master.TermsConfig{
			Meters: meters, Capture: base.CaptureTimings, TA: base.TA, TC: base.TC,
			Rng: rng.New(base.Seed ^ (uint64(isl+1) * 0x6d61)), // per-island master stream (T_A, T_C)
		})
		terms[isl] = t

		// Island workers.
		for w := 1; w < perP; w++ {
			rank := masterRank + w
			base.spawn(&worker{
				eng: eng, node: cl.Node(rank), master: masterRank,
				problem: base.Problem, tf: base.TF, straggler: 1,
				rng:   rng.New(base.Seed ^ (uint64(rank+1) * 0x9e3779b97f4a7c15)),
				terms: t,
			})
		}

		// Island master: a local instance of the shared state machine.
		// Worker ids inside the machine are island-local (1..perP−1);
		// the driver adds masterRank when touching the cluster.
		node := cl.Node(masterRank)
		nextMaster := ((isl + 1) % k) * perP
		var ilog *master.Log
		if cfg.Logs != nil {
			ilog = cfg.Logs[isl]
		}
		var mlog *federation.MigrantLog
		if cfg.MigrantLogs != nil {
			mlog = cfg.MigrantLogs[isl]
		}
		eng.Go(fmt.Sprintf("i%dmaster", isl), func(p *des.Process) {
			// A sampled T_A per critical section, charged to the island's
			// master node; a migrant costs one too, but no evaluation.
			alg := t.Bracket(b, func(ta float64, _ bool) { node.HoldBusy(p, ta, "algo") })
			mig := federation.NewMigration(base.Seed, isl, k, cfg.MigrationEvery, b, alg, mlog, meters.Migrants)
			m := master.NewCore(master.Config{
				Budget:    base.Evaluations,
				Policy:    master.EagerOffspring,
				Alg:       alg,
				Meters:    meters,
				Log:       ilog,
				OnMigrant: mig.Fold,
			})
			exec := func(acts []master.Action) {
				for _, a := range acts {
					switch a.Kind {
					case master.ActGrant:
						node.HoldBusy(p, t.Send(a.Item), "comm")
						node.Send(masterRank+a.Worker, tagEvaluate, a.Item)
					case master.ActStop:
						node.Send(masterRank+a.Worker, tagStop, nil)
					case master.ActComplete:
						res.IslandElapsed[isl] = p.Now()
						ilog.SetElapsed(p.Now())
					}
				}
			}
			// recv charges the one-way T_C exactly once per message at
			// first receive; messages backlogged during a migration wait
			// are not re-charged when the main loop gets to them.
			recv := func() cluster.Message {
				msg := node.Recv(p)
				node.HoldBusy(p, t.Recv(nil), "comm")
				return msg
			}
			var backlog []cluster.Message
			decode := func(payload any) *wire.Migrant {
				mg, err := wire.DecodeFrame(payload.([]byte)[4:])
				if err != nil {
					panic(fmt.Sprintf("parallel: island %d migrant frame: %v", isl, err))
				}
				return mg.(*wire.Migrant)
			}
			// next blocks for the predecessor's next migrant frame,
			// backlogging every other message for the main loop.
			next := func() (*wire.Migrant, error) {
				for {
					msg := recv()
					if msg.Tag == tagMigrant {
						return decode(msg.Payload), nil
					}
					backlog = append(backlog, msg)
				}
			}
			for w := 1; w < perP; w++ {
				exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: w, At: p.Now()}))
			}
			for !m.Done() {
				var msg cluster.Message
				if len(backlog) > 0 {
					msg = backlog[0]
					backlog = backlog[1:]
				} else {
					msg = recv()
				}
				switch msg.Tag {
				case tagMigrant:
					mig.Hold(decode(msg.Payload))
				case tagResult:
					item := msg.Payload.(*master.Item)
					exec(m.Handle(master.Event{
						Kind: master.EvResult, Worker: msg.From - masterRank, Item: item.ID, At: p.Now(),
					}))
					// An accept that opens an epoch sends its emigrant
					// frame (one T_C) and waits; a result that was not
					// accepted leaves the count where Boundary saw it.
					if _, ok := mig.Boundary(m.Completed()); ok {
						frame := mig.Emigrant(obs.SpanContext{})
						node.HoldBusy(p, t.Send(nil), "comm")
						node.Send(nextMaster, tagMigrant, append([]byte(nil), frame...))
						// The mailbox never fails, so neither does the wait.
						if in, _ := mig.Await(m.Done(), next); in != nil {
							exec(m.Handle(master.Event{Kind: master.EvMigrant, Worker: int(in.Island), Item: in.Epoch, At: p.Now()}))
						}
					}
				}
			}
			res.Migrants += mig.Sent()
		})
	}

	eng.Run()
	eng.Shutdown()

	for isl := 0; isl < k; isl++ {
		res.TotalEvaluations += res.Islands[isl].Evaluations()
		if res.IslandElapsed[isl] > res.ElapsedTime {
			res.ElapsedTime = res.IslandElapsed[isl]
		}
	}

	// Aggregate per-island timing observations (island-major order).
	var ta, tf master.Tally
	for _, t := range terms {
		ta.Merge(t.TA)
		tf.Merge(t.TF)
	}
	res.MeanTA, res.TASamples = ta.Mean(), ta.Samples
	res.MeanTF, res.TFSamples = tf.Mean(), tf.Samples

	// Merge: ε-nondominated union of all island archives, via the same
	// helper the federation (and its replays) use.
	res.MergedFront = federation.MergeArchives(base.Algorithm.Epsilons, res.Islands).Objectives()
	return res, nil
}
