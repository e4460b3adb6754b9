package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// The run protocol — what makes the numbers repeat on a shared 2-vCPU
// box (bench/README.md has the noise study behind each choice):
//
//   - every rep is a fresh child process with GOMAXPROCS=1, so set-up
//     time and peak memory get independent samples like everything
//     else, and no goroutine ever waits on a cross-vCPU wake-up;
//   - reps of the workloads are interleaved round-robin, so each
//     workload sees the same minutes of machine drift;
//   - the cost of a stochastic search depends on its seed (restart
//     timing moves tcp-core-p1 and des-table2-p1024 by ±10%), so the
//     reps of a run cycle through SubSeeds seeds derived from -seed, in
//     whole cycles, and the run's figure does not hang on one trajectory;
//   - every end-to-end metric is the median over the reps;
//   - the traced pass and the ladder are separate children whose
//     numbers never enter the end-to-end medians.

// SpawnEnv carries the driver's spawn time (Unix nanoseconds) to a
// child, so set-up time includes process start.
const SpawnEnv = "BORGBENCH_SPAWNED_NS"

// childLimit bounds one child process.
const childLimit = 150 * time.Second

// LadderName is the pseudo-workload name of the ladder child.
const LadderName = "ladder"

// SubSeeds is how many seeds a run cycles its reps through. Rep r of
// every workload uses SubSeed(seed, r mod SubSeeds); the first is the
// run's seed itself, and the traced pass uses that one.
const SubSeeds = 5

// Reps is the number of reps per workload of a full run: two whole
// cycles of the seeds, so every seed's final state is checked against a
// second rep of it.
const Reps = 2 * SubSeeds

// SubSeed derives the i-th seed of a run from its -seed.
func SubSeed(seed uint64, i int) uint64 { return seed + 1000*uint64(i) }

// Options configures one benchmark run.
type Options struct {
	Workloads []Workload
	Seed      uint64
	// Reps is the number of reps per workload. A positive Budget
	// replaces it after the first round: see budgetReps.
	Reps   int
	Budget time.Duration
	// Scale divides every evaluation count (1 for a real run).
	Scale uint64
	// Trace adds the ladder and one traced child per workload.
	Trace bool
	// Exe is the borgbench binary to re-execute.
	Exe string
	// Log receives progress lines and warnings (nil discards).
	Log io.Writer

	// tmp is the run's scratch directory, handed to every child as
	// TMPDIR and removed when the run ends, however its children did.
	tmp string
}

// WorkloadReport is one workload's aggregated result.
type WorkloadReport struct {
	Name string `json:"name"`
	// EndToEnd maps each end-to-end metric to its summary over the reps.
	EndToEnd map[string]Summary `json:"end_to_end"`
	// PerLayer holds the per-layer metrics: medians over the reps for
	// the counts, the traced child's numbers and the derived residual,
	// coverage and overhead terms.
	PerLayer  map[string]float64 `json:"per_layer"`
	Attempted uint64             `json:"ops_attempted"`
	Failed    uint64             `json:"ops_failed"`
	Failures  []string           `json:"failures,omitempty"`
	Reps      []Rep              `json:"reps"`
	TracedRep *Rep               `json:"traced_rep,omitempty"`
}

// Report is the output of one benchmark run.
type Report struct {
	Env       Env                `json:"env"`
	Seed      uint64             `json:"seed"`
	Reps      int                `json:"reps"`
	Scale     uint64             `json:"scale"`
	Ladder    map[string]float64 `json:"ladder,omitempty"`
	Workloads []WorkloadReport   `json:"workloads"`
	Warnings  []string           `json:"warnings,omitempty"`
}

// Failed reports the total failed operations of the run.
func (r *Report) Failed() (n uint64) {
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// Workload returns the named workload's report, or nil.
func (r *Report) Workload(name string) *WorkloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// spawn runs one child and decodes the JSON object on its last line.
func (o *Options) spawn(out any, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, o.Exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "TMPDIR="+o.tmp, SpawnEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], out); err != nil {
		return fmt.Errorf("child %v: bad result line: %w", args, err)
	}
	return nil
}

func (o *Options) rep(w Workload, round int, traced bool) (Rep, error) {
	seed := SubSeed(o.Seed, round%SubSeeds)
	args := []string{"-child", w.Name, "-seed", strconv.FormatUint(seed, 10), "-scale", strconv.FormatUint(o.Scale, 10)}
	if traced {
		args = append(args, "-traced")
	}
	var rep Rep
	err := o.spawn(&rep, args...)
	return rep, err
}

// Run executes the benchmark: the traced pass first when asked for,
// then rounds of one rep per workload.
func Run(o Options) (*Report, error) {
	rpts, err := runSets(o, 1)
	if err != nil {
		return nil, err
	}
	return rpts[0], nil
}

// SelfCheck runs two complete sets of the same binary, interleaved
// rep by rep (set A, set B, set A, …) so both see the same machine
// drift: an A/A comparison whose every difference is noise.
func SelfCheck(o Options) (a, b *Report, err error) {
	rpts, err := runSets(o, 2)
	if err != nil {
		return nil, nil, err
	}
	return rpts[0], rpts[1], nil
}

// budgetReps turns a time budget into a rep count, once, from how long
// the first round took: as many whole cycles of the seeds as fit, and
// at least one, so every median covers the same seed mix however fast
// the machine or the commit is.
func budgetReps(budget, firstRound time.Duration) int {
	cycles := int(budget / (SubSeeds * firstRound))
	return SubSeeds * max(cycles, 1)
}

func runSets(o Options, sets int) ([]*Report, error) {
	if o.Scale == 0 {
		o.Scale = 1
	}
	// The scratch directory sits in the working directory, not the
	// system's: the benchmark writes nothing outside its checkout.
	tmp, err := os.MkdirTemp(".", ".borgbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if o.tmp, err = filepath.Abs(tmp); err != nil {
		return nil, err
	}
	start := time.Now()
	rpts := make([]*Report, sets)
	for s := range rpts {
		rpts[s] = &Report{Env: CaptureEnv(), Seed: o.Seed, Scale: o.Scale}
		for _, w := range o.Workloads {
			rpts[s].Workloads = append(rpts[s].Workloads, WorkloadReport{Name: w.Name})
		}
	}
	if o.Trace {
		for _, rpt := range rpts {
			o.logf("ladder")
			if err := o.spawn(&rpt.Ladder, "-child", LadderName, "-scale", strconv.FormatUint(o.Scale, 10)); err != nil {
				return nil, err
			}
			for i, w := range o.Workloads {
				o.logf("%s traced", w.Name)
				rep, err := o.rep(w, 0, true)
				if err != nil {
					return nil, err
				}
				rpt.Workloads[i].TracedRep = &rep
			}
		}
	}
	reps := o.Reps
	for round := 0; round < reps; round++ {
		roundStart := time.Now()
		for i, w := range o.Workloads {
			for _, rpt := range rpts {
				rep, err := o.rep(w, round, false)
				if err != nil {
					return nil, err
				}
				rpt.Workloads[i].Reps = append(rpt.Workloads[i].Reps, rep)
				o.logf("%s rep %d: %.0f evals/s, %.2f us/eval", w.Name, round+1, rep.Metrics[EvalsPerS], rep.Metrics[CPUUsPerEval])
			}
		}
		if round == 0 && o.Budget > 0 {
			// What the traced pass used comes out of the budget too.
			reps = budgetReps(o.Budget-roundStart.Sub(start), time.Since(roundStart))
		}
	}
	for _, rpt := range rpts {
		rpt.Reps = reps
		for i, w := range o.Workloads {
			rpt.Workloads[i].aggregate(w, rpt.Ladder)
			rpt.Warnings = append(rpt.Warnings, rpt.Workloads[i].warnings()...)
		}
		for _, msg := range rpt.Warnings {
			o.logf("warning: %s", msg)
		}
	}
	return rpts, nil
}

// aggregate folds the reps into the workload's summaries, checks that
// a deterministic workload ended in the identical state on every rep
// of a seed, and derives the terms that need both the traced and the
// untraced runs.
func (wr *WorkloadReport) aggregate(w Workload, ladder map[string]float64) {
	wr.EndToEnd = map[string]Summary{}
	wr.PerLayer = map[string]float64{}
	samples := map[string][]float64{}
	layers := map[string][]float64{}
	var pooled []float64
	digests := map[uint64]string{} // per seed: the first rep's final state
	all := wr.Reps
	if wr.TracedRep != nil {
		all = append(append([]Rep(nil), all...), *wr.TracedRep)
	}
	for _, rep := range all {
		for _, f := range rep.Failures {
			wr.Failures = append(wr.Failures, fmt.Sprintf("%s: %s", w.Name, f))
		}
		if first, seen := digests[rep.Seed]; !seen {
			digests[rep.Seed] = rep.Digest
		} else if w.Deterministic && rep.Digest != first && len(rep.Failures) == 0 {
			wr.Failures = append(wr.Failures, fmt.Sprintf("%s: seed %d ended in state %s on one rep and %s on another", w.Name, rep.Seed, first, rep.Digest))
			rep.Failed = rep.Attempted
		}
		wr.Attempted += rep.Attempted
		wr.Failed += rep.Failed
		if rep.Traced || len(rep.UnitMs) == 0 {
			// A traced rep is checked like any other, but its numbers never
			// enter the medians; a rep that could not run has none.
			continue
		}
		for k, v := range rep.Metrics {
			samples[k] = append(samples[k], v)
		}
		samples[JobP50Ms] = append(samples[JobP50Ms], Median(rep.UnitMs))
		pooled = append(pooled, rep.UnitMs...)
		for k, v := range rep.Layers {
			layers[k] = append(layers[k], v)
		}
	}
	for _, m := range EndToEnd {
		wr.EndToEnd[m.Name] = Summarize(samples[m.Name])
	}
	for _, m := range PerLayer {
		wr.PerLayer[m.Name] = 0
		if xs := layers[m.Name]; len(xs) > 0 {
			wr.PerLayer[m.Name] = Median(xs)
		}
		if v, ok := ladder[m.Name]; ok {
			wr.PerLayer[m.Name] = v
		}
	}
	if len(pooled) > len(samples[JobP50Ms]) {
		// Several units of work per rep (the service's jobs): the pooled
		// sample is large enough for a tail.
		wr.PerLayer["jobs.job_p95_ms"], _ = TailPercentile(pooled, 0.95)
	}
	if wr.TracedRep != nil && len(wr.Reps) > 0 {
		wr.derive(w, wr.TracedRep)
	}
}

// derive fills the per-layer terms that combine the traced child, the
// untraced median and the ladder: the named layers plus the residual
// sum to the untraced cpu_us_per_eval by construction.
func (wr *WorkloadReport) derive(w Workload, tr *Rep) {
	pl := wr.PerLayer
	for _, k := range tracedNames {
		pl[k] = tr.Layers[k]
	}
	cpu := wr.EndToEnd[CPUUsPerEval].Median
	core := pl["core.suggest_us"] + pl["core.accept_us"]
	// Every frame is encoded once and decoded once by someone in this
	// process (the worker is in-process too).
	codec := pl["wire.frames_per_eval"] * (pl["wire.encode_evaluate_ns"] + pl["wire.decode_result_ns"]) / 1e3
	named := core + pl["master.handle_self_us"] + codec + tr.Layers["problems.eval_us"]
	pl[w.Residual] = cpu - named
	if cpu > 0 {
		pl["ladder.coverage"] = named / cpu
		pl["trace.overhead_pct"] = 100 * (tr.Metrics[CPUUsPerEval] - cpu) / cpu
	}
	// The collector's T_A against the replay's core time, where the
	// driver measures T_A and feeds it to the collector. Reported, never
	// failed.
	if ta := pl["trace.ta_us"]; core > 0 && ta > 0 && !w.SyntheticTA {
		pl["trace.ta_vs_replay_pct"] = 100 * math.Abs(ta-core) / core
	}
}

// warnings flags reps measured on a visibly disturbed machine.
func (wr *WorkloadReport) warnings() (out []string) {
	lo, hi := 0.0, 0.0
	for i, rep := range wr.Reps {
		if s := rep.Layers["env.steal_pct"]; s > 40 {
			out = append(out, fmt.Sprintf("%s rep %d: %.0f%% of CPU time was stolen", wr.Name, i+1, s))
		}
		for _, c := range []float64{rep.Layers["env.calib_ns"], rep.Layers["env.calib_after_ns"]} {
			if lo == 0 || c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
	}
	if lo > 0 && hi/lo > 1.25 {
		out = append(out, fmt.Sprintf("%s: env.calib_ns drifted %.0f%% within the run (%.2f..%.2f ns)", wr.Name, 100*(hi/lo-1), lo, hi))
	}
	return out
}
