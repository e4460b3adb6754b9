package parallel

import (
	"fmt"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
)

// rtResult carries an evaluated item back to the master goroutine,
// with the wall-clock time its evaluation took.
type rtResult struct {
	worker int
	item   *master.Item
	tf     float64
}

// RunAsyncRealtime executes the asynchronous master-slave Borg MOEA
// with real goroutines, channels and wall-clock delays — the Go
// equivalent of the paper's MPI implementation, used to cross-validate
// the virtual-time driver against actual concurrent execution.
// Evaluation delays are slept for real; keep N·TF/(P−1) small.
//
// The master is a single goroutine running the same shared state
// machine (internal/master) as the virtual-time and TCP drivers,
// preserving the paper's property that the algorithm's critical
// section is serial; workers communicate over channels (the MPI
// substitution — see DESIGN.md §2). Each worker has its own task
// channel so a grant addresses exactly the worker the state machine
// chose.
func RunAsyncRealtime(cfg Config) (*Result, error) {
	// Cheap validation first: reject configurations this driver can
	// never run before normalize touches distributions and long before
	// core.New allocates a full algorithm state.
	if !cfg.Fault.Empty() {
		return nil, fmt.Errorf("parallel: fault injection requires a virtual-time driver (RunAsync/RunSync); RunAsyncRealtime has no simulated cluster to fail")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b, err := core.New(cfg.Problem, algCfg)
	if err != nil {
		return nil, err
	}

	workers := cfg.Processors - 1
	tasks := make([]chan *master.Item, workers)
	for i := range tasks {
		// Capacity 1: the eager protocol keeps at most one outstanding
		// item per worker, so a grant never blocks the master.
		tasks[i] = make(chan *master.Item, 1)
	}
	results := make(chan rtResult, workers)
	done := make(chan struct{})

	meters := master.NewMeters(cfg.Metrics)
	events := cfg.Events
	adv := cfg.Advisor
	adv.Configure(cfg.Processors, cfg.Evaluations)
	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }

	streams := workerStreams(cfg.Seed, workers)
	for w := 0; w < workers; w++ {
		w := w
		wRng := streams[w]
		straggler := cfg.StragglerFraction > 0 &&
			float64(w) < cfg.StragglerFraction*float64(workers)
		actor := fmt.Sprintf("worker%d", w+1)
		in := tasks[w]
		go func() {
			for item := range in {
				t0 := since()
				core.EvaluateSolution(cfg.Problem, item.S)
				tf := cfg.TF.Sample(wRng)
				if straggler {
					tf *= cfg.StragglerFactor
				}
				time.Sleep(time.Duration(tf * float64(time.Second)))
				// T_F is what the evaluation took, as the paper measures
				// it — the sampled delay is only how long we asked to
				// sleep, and a loaded host oversleeps.
				tf = since() - t0
				meters.TF.Observe(tf)
				adv.ObserveTF(w+1, tf)
				if events != nil {
					events.Record(obs.Event{TS: t0, Dur: tf, Kind: "eval", Actor: actor})
				}
				select {
				case results <- rtResult{worker: w + 1, item: item, tf: tf}:
				case <-done:
					return
				}
			}
		}()
	}

	res := &Result{Processors: cfg.Processors, Final: b}
	// Only the Accept+Suggest critical section is timed (the paper's
	// T_A, always wall-clock here): seeding Suggest calls during worker
	// join are protocol setup, not steady-state algorithm time.
	meter := &taMeter{hist: meters.TA, adv: adv}
	alg := &master.Bracket{Algorithm: b, Enter: meter.enter, Leave: func(accept bool) {
		if !accept {
			return
		}
		ta := meter.leave()
		if events != nil {
			events.Record(obs.Event{TS: since() - ta, Dur: ta, Kind: "algo", Actor: "master"})
		}
	}}
	mcfg := master.Config{
		Budget: cfg.Evaluations,
		Policy: master.EagerOffspring,
		Alg:    alg,
		Meters: meters,
		Log:    cfg.Protocol,
		OnAccept: func(n uint64) {
			if cfg.CheckpointEvery > 0 && n%cfg.CheckpointEvery == 0 && cfg.OnCheckpoint != nil {
				meters.Checkpoints.Inc()
				cfg.OnCheckpoint(since(), b)
			}
		},
	}
	if adv != nil {
		mcfg.OnAcceptFrom = adv.ObserveAccept
	}
	if q := cfg.Quality; q != nil {
		q.Attach(b)
		mcfg.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
	m := master.NewCore(mcfg)
	exec := func(acts []master.Action) {
		for _, a := range acts {
			switch a.Kind {
			case master.ActGrant:
				tasks[a.Worker-1] <- a.Item
			case master.ActStop:
				close(tasks[a.Worker-1])
			case master.ActComplete:
				res.ElapsedTime = since()
				cfg.Protocol.SetElapsed(res.ElapsedTime)
			}
		}
	}
	// Seed every worker, then translate results until the budget is met.
	for w := 1; w <= workers; w++ {
		exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: w, At: since()}))
	}
	tfSum, tfN := 0.0, 0
	for !m.Done() {
		r := <-results
		tfSum += r.tf
		tfN++
		exec(m.Handle(master.Event{Kind: master.EvResult, Worker: r.worker, Item: r.item.ID, At: since()}))
		// Quality cadence: route the trigger through the master so the
		// sample point lands in the BMEL log (replayable).
		if q := cfg.Quality; q != nil && !m.Done() && q.Due(m.Completed(), since()) {
			exec(m.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: since()}))
		}
	}
	close(done) // frees workers blocked on a result send

	res.Evaluations = m.Completed()
	res.Completed = true
	res.MeanTA = meter.mean()
	// Evaluations > 0, so at least one result came back.
	res.MeanTF = tfSum / float64(tfN)
	res.MeanTC = 0 // channel transfers; not separately measurable here
	return res, nil
}

// workerStreams derives one timing-RNG stream per wall-clock worker by
// splitting a dedicated root, so worker streams are decorrelated by
// construction (each split reseeds through splitmix64) instead of by
// xor-scrambling the run seed. The root is offset from cfg.Seed so the
// streams are also independent of the master's algorithm randomness.
func workerStreams(seed uint64, n int) []*rng.Source {
	root := rng.New(seed ^ 0x7265616c74696d65) // "realtime"
	streams := make([]*rng.Source, n)
	for i := range streams {
		streams[i] = root.Split()
	}
	return streams
}
