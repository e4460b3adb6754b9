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

// RunAsync executes the asynchronous, master-slave Borg MOEA on the
// virtual cluster and returns its timing and search results.
//
// Protocol (Figure 2 of the paper): the master seeds every worker with
// one solution; thereafter, whenever a worker returns an evaluated
// solution the master is held for T_C (receive) + T_A (process result,
// generate next offspring) + T_C (send) and the worker immediately
// receives new work. Workers evaluate (T_F) and send back. The run
// ends when N evaluations have been accepted; T_P is the virtual time
// of the N-th acceptance.
//
// The protocol decisions — lease table, resubmission, duplicate
// suppression, worker lifecycle, probes, stop/drain — live in the
// shared state machine (internal/master); this driver only translates
// DES mailbox traffic into events and the machine's actions back into
// T_C holds and sends. A worker whose lease outlives
// Config.LeaseTimeout is presumed dead: its work is cloned and
// re-enqueued, the late original discarded as a duplicate by lease id.
// Recovered workers re-register via TagHello (pushed by the fault
// injector's transition hook) and rejoin the pool. The lease machinery
// consumes no randomness and adds no virtual-time charges, so with a
// nil fault plan and LeaseTimeout 0 it is pure bookkeeping.
func RunAsync(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	eng := des.New()
	eng.SetTrace(cfg.Events)
	cl := cluster.New(eng, cluster.Config{Nodes: cfg.Processors, Seed: cfg.Seed})
	inj := attachFaults(cl, &cfg)

	am, err := startMaster(cl, &cfg, master.NewMeters(cfg.Metrics), ring{islands: 1}, inj.Stop)
	if err != nil {
		return nil, err
	}
	res := &Result{Processors: cfg.Processors, Final: am.b}
	runEngine(eng, cl, inj, &cfg, res)

	st := am.m.Stats()
	res.ElapsedTime = am.elapsed
	res.Evaluations = st.Completed
	res.Completed = st.Completed >= cfg.Evaluations
	res.Resubmissions = st.Resubmissions
	res.LostEvaluations = st.Lost
	res.DuplicateResults = st.Duplicates
	res.MasterBusy = am.node.BusyTime()
	if am.elapsed > 0 {
		res.MasterUtilization = res.MasterBusy / am.elapsed
		sum := 0.0
		for w := 1; w < cfg.Processors; w++ {
			sum += cl.Node(w).BusyTime() / am.elapsed
		}
		res.MeanWorkerUtilization = sum / float64(cfg.Processors-1)
	}
	res.setTerms(am.terms)
	return res, nil
}

// tagMigrant marks a migrant frame between island masters. It rides
// the mailbox outside the canonical protocol vocabulary, as encoded
// wire bytes — the same bytes the TCP federation puts on the network.
const tagMigrant = 100

// ring places an asynchronous master among the island masters of
// RunIslands: island isl of islands, each on its own Processors ranks,
// exchanging on the federation's epoch protocol every `every` accepts
// with its emigrants logged to log. A lone master is island 0 of 1.
type ring struct {
	seed         uint64 // the federation seed the migrant streams split from
	isl, islands int
	every        uint64
	log          *federation.MigrantLog
}

// asyncMaster is one asynchronous master on the virtual cluster and
// what a run reads off it afterwards.
type asyncMaster struct {
	b       *core.Borg
	node    *cluster.Node
	terms   *master.Terms
	m       *master.Core
	mig     *federation.Migration
	elapsed float64 // virtual time of the budget's last accept
}

// startMaster builds an asynchronous master — RunAsync's, or one island
// of RunIslands, whose cfg carries the island's seed and log — with its
// Borg, its meter and the cfg.Processors−1 workers on the ranks after
// its own, and starts its process: the one master body of both
// drivers. The master receives lease-aware, charges each message's T_C
// once, at its first receive, and holds results that arrive while it
// waits for a migrant until the wait is over. stop, when set, runs once
// the budget is done.
func startMaster(cl *cluster.Cluster, cfg *Config, meters master.Meters, r ring, stop func()) (*asyncMaster, error) {
	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b, err := core.New(cfg.Problem, algCfg)
	if err != nil {
		return nil, err
	}
	eng := cl.Engine()
	adv := cfg.Advisor
	adv.Configure(cfg.Processors, cfg.Evaluations)
	rank := r.isl * cfg.Processors
	succ := ((r.isl + 1) % r.islands) * cfg.Processors
	am := &asyncMaster{b: b, node: cl.Node(rank), terms: master.NewTerms(b.Cost, master.TermsConfig{
		Meters: meters, Advisor: adv, Trace: cfg.Trace, Capture: cfg.CaptureTimings,
		TA: cfg.TA, TC: cfg.TC, Rng: rng.New(cfg.Seed ^ 0x6d617374), // "mast"
	})}
	startWorkers(cl, cfg, am.terms, rank)

	name := "master"
	if r.islands > 1 {
		name = fmt.Sprintf("i%dmaster", r.isl)
	}
	node, terms := am.node, am.terms
	eng.Go(name, func(p *des.Process) {
		// Every critical section is metered (sampled or counted T_A) and
		// charged to the master node as an "algo" hold, exactly as the
		// paper instruments it; a migrant costs one too, but no
		// evaluation.
		alg := terms.Bracket(b, func(ta float64, _ bool) { node.HoldBusy(p, ta, "algo") })
		mig := federation.NewMigration(r.seed, r.isl, r.islands, r.every, b, alg, r.log, meters.Migrants)
		mcfg := master.Config{
			Budget:       cfg.Evaluations,
			LeaseTimeout: cfg.LeaseTimeout,
			Policy:       master.EagerOffspring,
			Alg:          alg,
			Meters:       meters,
			Log:          cfg.Protocol,
			Tracer:       terms.Tracer(),
			OnMigrant:    mig.Fold,
		}
		if eng.Tracing() {
			// Only a traced engine reads the annotations, so only then
			// is the master handed a hook to format them for.
			mcfg.Emit = func(kind, detail string) { eng.Emit(kind, name, detail) }
		}
		if adv != nil {
			mcfg.OnAccept = adv.ObserveAccept
		}
		if q := cfg.Quality; q != nil {
			q.Attach(b)
			mcfg.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
		}
		m := master.NewCore(mcfg)
		am.m, am.mig = m, mig
		exec := func(acts []master.Action) {
			for _, a := range acts {
				switch a.Kind {
				case master.ActGrant:
					node.HoldBusy(p, terms.Send(a.Item), "comm")
					node.Send(rank+a.Worker, tagEvaluate, a.Item)
				case master.ActStop:
					node.Send(rank+a.Worker, tagStop, nil)
				case master.ActComplete:
					am.elapsed = p.Now()
					cfg.Protocol.SetElapsed(am.elapsed)
				}
			}
		}
		// recv blocks for the next message, ticking the machine when a
		// lease deadline passes while waiting (with no live leases it is
		// a plain Recv), and charges its queue wait and T_C.
		recv := func() (msg cluster.Message) {
			for got := false; !got; {
				if dl, ok := m.NextDeadline(); !ok {
					msg, got = node.Recv(p), true
				} else if dl > p.Now() {
					msg, got = node.RecvTimeout(p, dl-p.Now())
				}
				if !got {
					exec(m.Handle(master.Event{Kind: master.EvTick, At: p.Now()}))
				}
			}
			var item *master.Item
			if msg.Tag == tagResult {
				item = msg.Payload.(*master.Item)
			}
			terms.Queued(item, p.Now()-msg.ArriveAt)
			node.HoldBusy(p, terms.Recv(item), "comm")
			return msg
		}
		// next blocks for the predecessor's next migrant frame, holding
		// every other message for the main loop.
		var held []cluster.Message
		next := func() (*wire.Migrant, error) {
			for {
				msg := recv()
				if msg.Tag == tagMigrant {
					return decodeMigrant(msg.Payload), nil
				}
				held = append(held, msg)
			}
		}

		for w := 1; w < cfg.Processors; w++ {
			exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: w, At: p.Now()}))
		}
		// Steady state: receive, translate, execute.
		for !m.Done() {
			var msg cluster.Message
			if len(held) > 0 {
				msg, held = held[0], held[1:]
			} else {
				msg = recv()
			}
			switch msg.Tag {
			case tagHello:
				exec(m.Handle(master.Event{Kind: master.EvHello, Worker: msg.From - rank, At: p.Now()}))
			case tagMigrant:
				mig.Hold(decodeMigrant(msg.Payload))
			case tagResult:
				item := msg.Payload.(*master.Item)
				exec(m.Handle(master.Event{Kind: master.EvResult, Worker: msg.From - rank, Item: item.ID, At: p.Now()}))
				// An accept that opens an epoch sends its emigrant frame
				// (one T_C) and waits; a result that was not accepted
				// leaves the count where Boundary saw it.
				if _, ok := mig.Boundary(m.Completed()); ok {
					frame := mig.Emigrant()
					node.HoldBusy(p, terms.Send(nil), "comm")
					node.Send(succ, tagMigrant, append([]byte(nil), frame...))
					// The mailbox never fails, so neither does the wait.
					if in, _ := mig.Await(m.Done(), next); in != nil {
						exec(m.Handle(master.Event{Kind: master.EvMigrant, Worker: int(in.Island), Item: in.Epoch, At: p.Now()}))
					}
				}
				// Quality cadence: the trigger detours through the master
				// so the sample point lands in the BMEL log (replayable).
				if q := cfg.Quality; q != nil && !m.Done() && q.Due(m.Completed(), p.Now()) {
					exec(m.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: p.Now()}))
				}
			}
		}
		// Drain any in-flight results so the mailbox is empty.
		for w := 1; w < cfg.Processors; w++ {
			if node.InboxLen() == 0 {
				break
			}
			node.Recv(p)
		}
		if stop != nil {
			stop()
		}
	})
	return am, nil
}

// decodeMigrant decodes a migrant frame from the mailbox.
func decodeMigrant(payload any) *wire.Migrant {
	mg, err := wire.DecodeFrame(payload.([]byte)[4:])
	if err != nil {
		panic(fmt.Sprintf("parallel: migrant frame: %v", err))
	}
	return mg.(*wire.Migrant)
}
