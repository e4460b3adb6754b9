package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/jobs"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/wire"
)

// traced holds what the hooks of one traced run recorded. The traced
// pass is a separate child per workload: its numbers never enter the
// end-to-end medians, and the difference between its cpu_us_per_eval
// and the untraced one is the tracing overhead.
type traced struct {
	reg     *obs.Registry
	cols    []*obs.Collector
	replays []replayInput
	// migrant resolves a federation EvMigrant against the source
	// island's sidecar log; nil elsewhere.
	migrant func(source int, epoch uint64) (*core.Solution, bool)
	counts  map[string]float64
	// frames0 and bytes0 are the wire counters when the measured run
	// began: a long-lived instance (the job service) has already moved
	// them during its warm-up.
	frames0, bytes0 uint64
}

// replayInput is one master's recorded event log with everything
// needed to re-run it offline.
type replayInput struct {
	problem problems.Problem
	alg     core.Config // Seed set
	log     *master.Log
}

func newTraced() *traced {
	return &traced{reg: obs.NewRegistry(), counts: map[string]float64{}}
}

func (t *traced) wireCounters() (frames, bytes uint64) {
	frames = t.reg.Counter(wire.MetricFramesSent).Value() + t.reg.Counter(wire.MetricFramesRecv).Value()
	bytes = t.reg.Counter(wire.MetricBytesSent).Value() + t.reg.Counter(wire.MetricBytesRecv).Value()
	return frames, bytes
}

// mark notes the start of the measured run (nil-safe).
func (t *traced) mark() {
	if t != nil {
		t.frames0, t.bytes0 = t.wireCounters()
	}
}

// hooks returns the three hooks a driver accepts for one master — a
// protocol log, a rate-1 trace collector and the shared registry — and
// remembers the log for the offline replay.
func (t *traced) hooks(p problems.Problem, alg core.Config, seed uint64) (*master.Log, *obs.Collector, *obs.Registry) {
	alg.Seed = seed
	log := master.NewLog()
	col := obs.NewCollector(obs.CollectorConfig{RunID: seed, Rate: 1})
	t.cols = append(t.cols, col)
	t.replays = append(t.replays, replayInput{problem: p, alg: alg, log: log})
	return log, col, t.reg
}

// parallelResult keeps what a parallel driver's Result says about the
// master's time (nil-safe).
func (t *traced) parallelResult(res *parallel.Result) {
	if t != nil {
		t.counts["parallel.mean_ta_us"] = 1e6 * res.MeanTA
		t.counts["parallel.master_utilization"] = res.MasterUtilization
	}
}

// addJob loads a finished job's event log: the scheduler streams it to
// <id>.bmel in its state directory.
func (t *traced) addJob(stateDir, id string, spec *jobs.Spec) error {
	f, err := os.Open(filepath.Join(stateDir, id+".bmel"))
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := master.ReadLog(f)
	if err != nil {
		return fmt.Errorf("job %s: %w", id, err)
	}
	s := *spec
	p, alg, err := s.Normalize()
	if err != nil {
		return err
	}
	t.replays = append(t.replays, replayInput{problem: p, alg: alg, log: log})
	return nil
}

// span is the total duration of every span of one name recorded
// during a replay. Spans are recorded here, around the calls into the
// layer, not inside it.
type span struct{ seconds float64 }

func (s *span) add(start time.Time) { s.seconds += time.Since(start).Seconds() }

// timedAlg wraps core.Borg as a master.Algorithm that records a span
// around every Suggest and Accept.
type timedAlg struct {
	b               *core.Borg
	suggest, accept span
}

func (a *timedAlg) Suggest() *core.Solution {
	defer a.suggest.add(time.Now())
	return a.b.Suggest()
}

func (a *timedAlg) Accept(s *core.Solution) {
	defer a.accept.add(time.Now())
	a.b.Accept(s)
}

func (a *timedAlg) AcceptSuggest(s *core.Solution) *core.Solution {
	a.Accept(s)
	return a.Suggest()
}

// tracedNames lists the per-layer metrics only a traced rep reports.
var tracedNames = []string{
	"trace.tc_send_us", "trace.tf_us", "trace.queue_wait_us", "trace.tc_recv_us", "trace.ta_us",
	"parallel.mean_ta_us", "parallel.master_utilization",
	"wire.frames_per_eval", "wire.bytes_per_eval",
	"core.suggest_us", "core.accept_us", "master.handle_self_us", "master.events_per_eval",
}

// layers replays every recorded log through master.Replay with the
// timing wrapper and folds the collectors' attribution and the wire
// counters in, returning the raw per-layer numbers of the traced run
// (per accepted evaluation). master.handle_self_us is the replay's
// total minus its children — the Algorithm calls and the stand-in
// function evaluation.
func (t *traced) layers(evals uint64) (map[string]float64, error) {
	out := t.counts
	var suggest, accept, eval, handle span
	var events int
	for _, in := range t.replays {
		b, err := core.New(in.problem, in.alg)
		if err != nil {
			return nil, err
		}
		alg := &timedAlg{b: b}
		rc := master.ReplayConfig{
			Alg: alg,
			Evaluate: func(item *master.Item) {
				defer eval.add(time.Now())
				core.EvaluateSolution(in.problem, item.S)
			},
		}
		if t.migrant != nil {
			rc.OnMigrant = func(source int, epoch uint64) {
				if s, ok := t.migrant(source, epoch); ok {
					b.InjectEvaluated(s)
				}
			}
		}
		start := time.Now()
		c, err := master.Replay(in.log, rc)
		handle.add(start)
		if err != nil {
			return nil, err
		}
		if got := c.Completed(); got != in.log.Meta.Budget {
			return nil, fmt.Errorf("bench: replay completed %d of %d evaluations", got, in.log.Meta.Budget)
		}
		events += len(in.log.Events)
		suggest.seconds += alg.suggest.seconds
		accept.seconds += alg.accept.seconds
	}
	n := float64(evals)
	out["core.suggest_us"] = 1e6 * suggest.seconds / n
	out["core.accept_us"] = 1e6 * accept.seconds / n
	out["problems.eval_us"] = 1e6 * eval.seconds / n
	out["master.handle_self_us"] = 1e6 * (handle.seconds - suggest.seconds - accept.seconds - eval.seconds) / n
	out["master.events_per_eval"] = float64(events) / n

	var tcSend, tf, wait, tcRecv, ta obs.TermStats
	for _, col := range t.cols {
		a := col.Forest().Attribution()
		for _, p := range []struct{ dst, src *obs.TermStats }{
			{&tcSend, &a.TCSend}, {&tf, &a.TF}, {&wait, &a.Wait}, {&tcRecv, &a.TCRecv}, {&ta, &a.TA},
		} {
			p.dst.N += p.src.N
			p.dst.Sum += p.src.Sum
		}
	}
	// Per-evaluation means: a term the transport never observes (tc.recv
	// and queue.wait on TCP today) reads 0.
	out["trace.tc_send_us"] = 1e6 * tcSend.Sum / n
	out["trace.tf_us"] = 1e6 * tf.Sum / n
	out["trace.queue_wait_us"] = 1e6 * wait.Sum / n
	out["trace.tc_recv_us"] = 1e6 * tcRecv.Sum / n
	out["trace.ta_us"] = 1e6 * ta.Sum / n

	frames, bytes := t.wireCounters()
	out["wire.frames_per_eval"] = float64(frames-t.frames0) / n
	out["wire.bytes_per_eval"] = float64(bytes-t.bytes0) / n
	return out, nil
}
