package parallel

import (
	"fmt"

	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
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
	// an island (0 disables migration). Migration follows the
	// synchronous epoch protocol shared with the TCP federation (see
	// internal/federation): send to the ring successor first, then
	// block for the predecessor's migrant of the same epoch and fold
	// it in as an EvMigrant event.
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
// cluster ranks. With migration enabled, island masters exchange
// migrants on the synchronous epoch protocol: at each boundary the
// master serializes a random archive member as a wire.Migrant frame
// (no Solution clone — the frame is the copy), sends it to the ring
// successor, then blocks for the predecessor's migrant of the same
// epoch and folds it in under an EvMigrant event — algorithm time
// charged, but no function evaluation. Recording those events makes
// migration part of the replayable BMEL stream instead of a side
// channel.
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

	// Per-process timing recorders: one T_A recorder per island master,
	// one T_F recorder per worker, merged in deterministic (island-
	// major, rank) order after the run — no shared counters are touched
	// from inside process closures.
	taMeters := make([]*taMeter, k)
	tfRecs := make([][]*tfRecorder, k)

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

		mRng := rng.New(base.Seed ^ (uint64(isl+1) * 0x6d61)) // per-island master stream (T_A, T_C)
		migRng := federation.NewMigrationRNG(base.Seed, isl)  // emigrant selection, shared with TCP
		meter := &taMeter{dist: base.TA, rng: mRng, capture: base.CaptureTimings, hist: meters.TA}
		taMeters[isl] = meter
		sampleTC := func() float64 {
			tc := base.TC.Sample(mRng)
			meters.TC.Observe(tc)
			return tc
		}

		// Island workers.
		tfRecs[isl] = make([]*tfRecorder, perP-1)
		for w := 1; w < perP; w++ {
			rank := masterRank + w
			tfRec := &tfRecorder{capture: base.CaptureTimings, hist: meters.TF}
			tfRecs[isl][w-1] = tfRec
			base.spawn(&worker{
				eng: eng, node: cl.Node(rank), master: masterRank,
				problem: base.Problem, tf: base.TF, straggler: 1,
				rng: rng.New(base.Seed ^ (uint64(rank+1) * 0x9e3779b97f4a7c15)),
				rec: tfRec,
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
			// staged carries the migrant solution into the OnMigrant
			// hook under Handle — the same injection point federation
			// replays resolve from the migrant sidecar log.
			var staged *core.Solution
			// A sampled T_A per critical section, charged to the island's
			// master node; a migrant costs one too, but no evaluation.
			alg := &master.Bracket{Algorithm: b, Enter: meter.enter, Leave: func(bool) {
				node.HoldBusy(p, meter.leave(), "algo")
			}}
			m := master.NewCore(master.Config{
				Budget: base.Evaluations,
				Policy: master.EagerOffspring,
				Alg:    alg,
				Meters: meters,
				Log:    ilog,
				OnMigrant: func(source int, epoch uint64) {
					if staged != nil {
						alg.Enter()
						b.InjectEvaluated(staged)
						alg.Leave(false)
						staged = nil
					}
				},
			})
			exec := func(acts []master.Action) {
				for _, a := range acts {
					switch a.Kind {
					case master.ActGrant:
						node.HoldBusy(p, sampleTC(), "comm")
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
				node.HoldBusy(p, sampleTC(), "comm")
				return msg
			}
			var backlog []cluster.Message
			pendingMig := make(map[uint64]*wire.Migrant)
			var lastEpoch uint64
			var migBuf []byte // frame scratch, reused per epoch
			decode := func(payload any) *wire.Migrant {
				mg, err := wire.DecodeFrame(payload.([]byte)[4:])
				if err != nil {
					panic(fmt.Sprintf("parallel: island %d migrant frame: %v", isl, err))
				}
				return mg.(*wire.Migrant)
			}
			// takeMigrant blocks until the predecessor's epoch-e migrant
			// arrives, buffering early migrants of later epochs and
			// backlogging every other message for the main loop.
			takeMigrant := func(epoch uint64) *wire.Migrant {
				if mg, ok := pendingMig[epoch]; ok {
					delete(pendingMig, epoch)
					return mg
				}
				for {
					msg := recv()
					if msg.Tag == tagMigrant {
						mg := decode(msg.Payload)
						if mg.Epoch == epoch {
							return mg
						}
						pendingMig[mg.Epoch] = mg
						continue
					}
					backlog = append(backlog, msg)
				}
			}
			// afterAccept is the synchronous epoch protocol at accept
			// count n: serialize the emigrant straight into the pooled
			// frame buffer (no Solution clone), send to the successor,
			// then — unless the budget just completed — wait for the
			// predecessor's migrant of the same epoch and fold it in as
			// an EvMigrant event. Send-before-wait keeps the ring
			// deadlock-free.
			afterAccept := func(n uint64, accepted *core.Solution) {
				if cfg.MigrationEvery == 0 || k <= 1 || n%cfg.MigrationEvery != 0 {
					return
				}
				epoch := n / cfg.MigrationEvery
				if epoch <= lastEpoch {
					return
				}
				lastEpoch = epoch
				mg := federation.Emigrant(isl, epoch, b.Archive(), migRng, accepted)
				migBuf = wire.AppendFrame(migBuf[:0], mg)
				node.HoldBusy(p, sampleTC(), "comm")
				node.Send(nextMaster, tagMigrant, append([]byte(nil), migBuf...))
				mlog.Record(mg)
				res.Migrants++
				meters.Migrants.Inc()
				if m.Done() {
					return
				}
				in := takeMigrant(epoch)
				staged = federation.MigrantSolution(in)
				exec(m.Handle(master.Event{Kind: master.EvMigrant, Worker: int(in.Island), Item: epoch, At: p.Now()}))
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
					// Outside a boundary wait: the predecessor runs
					// ahead; hold its frame for the epoch we will reach.
					mg := decode(msg.Payload)
					pendingMig[mg.Epoch] = mg
				case tagResult:
					item := msg.Payload.(*master.Item)
					prev := m.Completed()
					exec(m.Handle(master.Event{
						Kind: master.EvResult, Worker: msg.From - masterRank, Item: item.ID, At: p.Now(),
					}))
					if n := m.Completed(); n > prev {
						afterAccept(n, item.S)
					}
				}
			}
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
	taSum, taN := 0.0, uint64(0)
	tfSum, tfN := 0.0, uint64(0)
	for isl := 0; isl < k; isl++ {
		taSum += taMeters[isl].sum
		taN += taMeters[isl].n
		res.TASamples = append(res.TASamples, taMeters[isl].samples...)
		for _, r := range tfRecs[isl] {
			tfSum += r.sum
			tfN += r.n
			res.TFSamples = append(res.TFSamples, r.samples...)
		}
	}
	if taN > 0 {
		res.MeanTA = taSum / float64(taN)
	}
	if tfN > 0 {
		res.MeanTF = tfSum / float64(tfN)
	}

	// Merge: ε-nondominated union of all island archives, via the same
	// helper the federation (and its replays) use.
	res.MergedFront = federation.MergeArchives(base.Algorithm.Epsilons, res.Islands).Objectives()
	return res, nil
}
