package parallel

import (
	"borgmoea/internal/advisor"
	"borgmoea/internal/cluster"
	"borgmoea/internal/core"
	"borgmoea/internal/des"
	"borgmoea/internal/fault"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// tfRecorder accumulates one process's evaluation-time observations.
// Each worker process owns its recorder exclusively and the drivers
// merge them in rank order at teardown, so no shared counters are
// mutated from inside worker closures — the drivers stay clean under
// the race detector even if the DES engine's lock-step execution model
// ever changed.
type tfRecorder struct {
	worker  int
	sum     float64
	n       uint64
	capture bool
	samples []float64
	hist    *obs.Histogram   // optional shared telemetry sink (nil-safe, concurrent-safe)
	adv     *advisor.Advisor // optional advisor feed (nil-safe; attributes by worker)
}

func (r *tfRecorder) record(tf float64) {
	r.sum += tf
	r.n++
	if r.capture {
		r.samples = append(r.samples, tf)
	}
	r.hist.Observe(tf)
	r.adv.ObserveTF(r.worker, tf)
}

// recordTraced is record plus an exemplar: a sampled evaluation pins
// its trace id to the T_F histogram bucket it lands in, so /debug/
// metrics links a latency bucket to a concrete trace.
func (r *tfRecorder) recordTraced(tf float64, item *master.Item) {
	r.sum += tf
	r.n++
	if r.capture {
		r.samples = append(r.samples, tf)
	}
	r.hist.ObserveExemplar(tf, item.SampledTraceID())
	r.adv.ObserveTF(r.worker, tf)
}

// newRecorders returns one recorder per worker rank 1..P−1.
func newRecorders(cfg *Config) []*tfRecorder {
	hist := cfg.Metrics.Histogram(mTF, nil)
	recs := make([]*tfRecorder, cfg.Processors-1)
	for i := range recs {
		recs[i] = &tfRecorder{worker: i + 1, capture: cfg.CaptureTimings, hist: hist, adv: cfg.Advisor}
	}
	return recs
}

// mergeTF folds recorders into the result in the caller's (rank)
// order, making TFSamples deterministic.
func mergeTF(res *Result, recs ...*tfRecorder) {
	sum, n := 0.0, uint64(0)
	for _, r := range recs {
		sum += r.sum
		n += r.n
		res.TFSamples = append(res.TFSamples, r.samples...)
	}
	if n > 0 {
		res.MeanTF = sum / float64(n)
	}
}

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
	straggler float64 // T_F multiplier, 1 unless a straggler
	rec       *tfRecorder
	trace     *obs.Collector // nil-safe

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
	w.rec.recordTraced(tf, w.item)
	w.trace.ObserveTF(w.item.ID, tf)
	w.node.BusyFor(tf, "eval", w.evaluated)
}

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

// startWorkers starts the P−1 workers shared by the async and sync
// virtual-time drivers, worker w on node w with its own T_F stream.
func startWorkers(cl *cluster.Cluster, cfg *Config, recs []*tfRecorder) {
	for r := 1; r < cfg.Processors; r++ {
		w := &worker{
			eng: cl.Engine(), node: cl.Node(r), problem: cfg.Problem, tf: cfg.TF, straggler: 1,
			rng: rng.New(cfg.Seed ^ (uint64(r) * 0x9e3779b97f4a7c15)),
			rec: recs[r-1], trace: cfg.Trace,
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
