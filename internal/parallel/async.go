package parallel

import (
	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/master"
	"borgmoea/internal/rng"
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
	installTrace(eng, &cfg)
	cl := cluster.New(eng, cluster.Config{Nodes: cfg.Processors, Seed: cfg.Seed})
	inj := attachFaults(cl, &cfg)

	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b, err := core.New(cfg.Problem, algCfg)
	if err != nil {
		return nil, err
	}

	res := &Result{Processors: cfg.Processors, Final: b}
	meters := master.NewMeters(cfg.Metrics)
	adv := cfg.Advisor
	adv.Configure(cfg.Processors, cfg.Evaluations)
	masterRng := rng.New(cfg.Seed ^ 0x6d617374) // "mast"
	meter := &taMeter{dist: cfg.TA, rng: masterRng, capture: cfg.CaptureTimings, hist: meters.TA, adv: adv}
	tcSum, tcN := 0.0, uint64(0)
	sampleTC := func() float64 {
		tc := cfg.TC.Sample(masterRng)
		tcSum += tc
		tcN++
		meters.TC.Observe(tc)
		adv.ObserveTC(tc)
		return tc
	}

	var elapsedAtN float64
	var m *master.Core

	recs := newRecorders(&cfg)
	startWorkers(cl, &cfg, recs)

	// Master process: one shared state machine, one mailbox.
	node := cl.Node(0)
	eng.Go("master", func(p *des.Process) {
		// Every critical section is metered (sampled or measured T_A)
		// and charged to the master node as an "algo" hold, exactly as the
		// paper instruments it. curItem is the lease id of the result
		// being folded in: the loop stashes it before Handle(EvResult) so
		// the accept can attribute its T_A to the evaluation's trace.
		var curItem uint64
		alg := &master.Bracket{Algorithm: b, Enter: meter.enter, Leave: func(accept bool) {
			ta := meter.leave()
			node.HoldBusy(p, ta, "algo")
			if accept {
				cfg.Trace.ObserveTA(curItem, ta)
			}
		}}
		mcfg := master.Config{
			Budget:       cfg.Evaluations,
			LeaseTimeout: cfg.LeaseTimeout,
			Policy:       master.EagerOffspring,
			Alg:          alg,
			Meters:       meters,
			Log:          cfg.Protocol,
			OnAccept: func(n uint64) {
				if cfg.CheckpointEvery > 0 && n%cfg.CheckpointEvery == 0 && cfg.OnCheckpoint != nil {
					meters.Checkpoints.Inc()
					cfg.OnCheckpoint(p.Now(), b)
				}
			},
		}
		if eng.Tracing() {
			// Only a traced engine reads the annotations, so only then
			// is the master handed a hook to format them for.
			mcfg.Emit = func(kind, detail string) { eng.Emit(kind, "master", detail) }
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
		m = master.NewCore(mcfg)
		exec := func(acts []master.Action) {
			for _, a := range acts {
				switch a.Kind {
				case master.ActGrant:
					tc := sampleTC()
					node.HoldBusy(p, tc, "comm")
					cfg.Trace.ObserveTCSend(a.Item.ID, tc)
					node.Send(a.Worker, tagEvaluate, a.Item)
				case master.ActStop:
					node.Send(a.Worker, tagStop, nil)
				case master.ActComplete:
					elapsedAtN = p.Now()
					cfg.Protocol.SetElapsed(elapsedAtN)
				}
			}
		}
		// receive blocks for the next message, ticking the machine when
		// a lease deadline passes while waiting. With no live leases
		// (or lease expiry disabled) it degenerates to a plain Recv.
		receive := func() cluster.Message {
			for {
				dl, ok := m.NextDeadline()
				if !ok {
					return node.Recv(p)
				}
				if dl > p.Now() {
					if msg, got := node.RecvTimeout(p, dl-p.Now()); got {
						return msg
					}
				}
				exec(m.Handle(master.Event{Kind: master.EvTick, At: p.Now()}))
			}
		}

		// Seed every worker with an initial solution.
		for w := 1; w < cfg.Processors; w++ {
			exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: w, At: p.Now()}))
		}
		// Steady state: receive, translate, execute.
		for !m.Done() {
			msg := receive()
			wait := p.Now() - msg.ArriveAt
			adv.ObserveQueueWait(wait)
			tc := sampleTC()
			node.HoldBusy(p, tc, "comm")
			if msg.Tag == tagHello {
				meters.QueueWait.Observe(wait)
				exec(m.Handle(master.Event{Kind: master.EvHello, Worker: msg.From, At: p.Now()}))
				continue
			}
			item := msg.Payload.(*master.Item)
			meters.QueueWait.ObserveExemplar(wait, item.SampledTraceID())
			cfg.Trace.ObserveQueueWait(item.ID, wait)
			cfg.Trace.ObserveTCRecv(item.ID, tc)
			curItem = item.ID
			exec(m.Handle(master.Event{Kind: master.EvResult, Worker: msg.From, Item: item.ID, At: p.Now()}))
			// Quality cadence: the trigger detours through the master so
			// the sample point lands in the BMEL log (replayable).
			if q := cfg.Quality; q != nil && !m.Done() && q.Due(m.Completed(), p.Now()) {
				exec(m.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: p.Now()}))
			}
		}
		// Drain any in-flight results so the mailbox is empty.
		for w := 1; w < cfg.Processors; w++ {
			if node.InboxLen() == 0 {
				break
			}
			node.Recv(p)
		}
		inj.Stop()
	})

	runEngine(eng, cl, inj, &cfg, res)

	st := m.Stats()
	res.ElapsedTime = elapsedAtN
	res.Evaluations = st.Completed
	res.Completed = st.Completed >= cfg.Evaluations
	res.Resubmissions = st.Resubmissions
	res.LostEvaluations = st.Lost
	res.DuplicateResults = st.Duplicates
	res.MasterBusy = node.BusyTime()
	if elapsedAtN > 0 {
		res.MasterUtilization = res.MasterBusy / elapsedAtN
		sum := 0.0
		for w := 1; w < cfg.Processors; w++ {
			sum += cl.Node(w).BusyTime() / elapsedAtN
		}
		res.MeanWorkerUtilization = sum / float64(cfg.Processors-1)
	}
	res.MeanTA = meter.mean()
	res.TASamples = meter.samples
	mergeTF(res, recs...)
	if tcN > 0 {
		res.MeanTC = tcSum / float64(tcN)
	}
	return res, nil
}
