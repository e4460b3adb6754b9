package parallel

import (
	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/fault"
	"borgmoea/internal/master"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// worker is one evaluation node of the virtual-time drivers: take a
// work item, evaluate it, stay busy for T_F, echo the item to the
// master. It is a callback state machine on cluster.Node.Serve, not a
// process, so a run keeps one goroutine per master however large P is.
// It schedules what a process looping on Recv/HoldBusy/Send would, in
// the same order — the zero-delay wake after a delivery, the T_F hold,
// the send — so every tie in virtual time breaks as it did with
// process workers (worker_ref_test.go holds it to that).
//
// Fault semantics: a crash during the evaluation bumps the node's
// epoch, so the result is never sent (the work died with the node); a
// transient hang defers the response until the node is responsive
// again.
type worker struct {
	eng       *des.Engine
	node      *cluster.Node
	master    int // rank the results go to
	problem   problems.Problem
	tf        stats.Distribution
	rng       *rng.Source
	straggler float64       // T_F multiplier, 1 unless a straggler
	terms     *master.Terms // the master's meter, which T_F is reported to

	item  *master.Item // the evaluation in progress
	epoch uint64       // node incarnation it started under
	// The callbacks below as func values, built once.
	evaluated, respond func()
}

func (w *worker) start() {
	w.evaluated, w.respond = w.onEvaluated, w.onRespond
	w.node.Serve(w.serve)
}

// serve starts on the next queued work item, if there is one;
// otherwise the node calls it again on the next delivery.
func (w *worker) serve() {
	msg, ok := w.node.TryRecv()
	if !ok {
		return
	}
	if msg.Tag == tagStop {
		w.node.Serve(nil)
		return
	}
	w.item = msg.Payload.(*master.Item)
	w.epoch = w.node.Epoch()
	core.EvaluateSolution(w.problem, w.item.S)
	tf := w.tf.Sample(w.rng) * w.straggler
	w.terms.Evaluated(w.id(), w.item, tf)
	w.node.BusyFor(tf, "eval", w.evaluated)
}

// id is the worker's id on its master: its rank past the master's.
func (w *worker) id() int { return w.node.Rank() - w.master }

func (w *worker) onEvaluated() {
	now := w.eng.Now()
	switch until := w.node.SuspendedUntil(); {
	case w.node.Failed() || w.node.Epoch() != w.epoch:
		w.serve() // crashed mid-evaluation: the work is lost
	case until > now:
		w.eng.Schedule(until-now, w.respond) // hang delays the response
	default:
		w.onRespond()
	}
}

func (w *worker) onRespond() {
	w.node.Send(w.master, tagResult, w.item)
	w.serve()
}

// startWorkers starts the P−1 workers of the master at rank, shared by
// the async and sync virtual-time drivers: worker w on the node w ranks
// past the master's, with its own T_F stream, reporting to the
// master's meter.
func startWorkers(cl *cluster.Cluster, cfg *Config, terms *master.Terms, rank int) {
	for r := 1; r < cfg.Processors; r++ {
		w := &worker{
			eng: cl.Engine(), node: cl.Node(rank + r), master: rank, problem: cfg.Problem, tf: cfg.TF, straggler: 1,
			rng:   rng.New(cfg.Seed ^ (uint64(r) * 0x9e3779b97f4a7c15)),
			terms: terms,
		}
		if cfg.StragglerFraction > 0 && float64(r-1) < cfg.StragglerFraction*float64(cfg.Processors-1) {
			w.straggler = cfg.StragglerFactor
		}
		cfg.spawn(w)
	}
}

// attachFaults installs the run's fault plan on the cluster and wires
// the recovery protocol: when a worker node comes back from a crash it
// re-registers with the master via tagHello (its previous work and
// queued messages died with the crash). Returns the injector for
// statistics and teardown.
func attachFaults(cl *cluster.Cluster, cfg *Config) *fault.Injector {
	inj := fault.Attach(cl, cfg.Fault)
	inj.SetTransitionHook(func(rank int, up bool) {
		if up && rank != 0 {
			cl.Node(rank).Send(0, tagHello, rank)
		}
	})
	return inj
}

// runEngine drives the simulation to completion, honoring the optional
// virtual-time limit, and folds cluster/injector fault statistics into
// the result.
func runEngine(eng *des.Engine, cl *cluster.Cluster, inj *fault.Injector, cfg *Config, res *Result) {
	if cfg.SimTimeLimit > 0 {
		eng.RunUntil(cfg.SimTimeLimit)
	} else {
		eng.Run()
	}
	eng.Shutdown()
	st := inj.Stats()
	res.WorkerCrashes = st.Crashes
	res.WorkerRecoveries = st.Recoveries
	res.HangsInjected = st.Hangs
	res.MessagesLost = cl.MessagesLost()
}
