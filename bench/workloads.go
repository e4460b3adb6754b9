package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/jobs"
	"borgmoea/internal/parallel"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// Workload is one fixed, seeded piece of work. The work is a count of
// evaluations, never a duration, so two commits of a comparison do
// identical work.
type Workload struct {
	Name string
	// Why says what the workload stresses and what it must not reward.
	Why string
	// N and NWarm are the evaluations of the measured and the warm-up
	// run, per master: per island on fed-ring-2x1, per job on
	// svc-jobs-c2.
	N, NWarm uint64
	// Deterministic workloads must produce the identical archive on
	// every rep of a seed.
	Deterministic bool
	// HVFloor is the hv_norm below which a rep fails its output check.
	HVFloor float64
	// Residual names the per-layer metric that receives this workload's
	// unnamed remainder of cpu_us_per_eval.
	Residual string
	// SyntheticTA marks a workload that charges a configured T_A, not a
	// measured one: its trace.ta_us says nothing about the core's time.
	SyntheticTA bool

	// open prepares the workload; tr is non-nil in the traced pass.
	open func(seed uint64, tr *traced) (instance, error)
}

// instance is an opened workload: run is called once for the warm-up
// (tr nil) and once for the measured run, then close.
type instance interface {
	run(n uint64, tr *traced) (*outcome, error)
	close()
}

// outcome is what one run produced, before any check.
type outcome struct {
	attempted uint64  // evaluations requested
	evals     uint64  // evaluations accepted
	wallS     float64 // the evals_per_s denominator
	// unitMs holds the submit→done latency of each unit of work: one
	// whole run, or one entry per job on svc-jobs-c2.
	unitMs []float64
	// archives holds the final archive(s) to check and score: the
	// merged front for federation, one per job for the service.
	archives []*core.Archive
	// exact holds values that must repeat bit for bit on every rep of a
	// seed, beside the archives: they are folded into the digest.
	exact    []float64
	problem  problems.Problem
	counts   map[string]float64
	failures []string
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

const (
	jobsWorkers   = 2 // fleet size of svc-jobs-c2
	jobsClients   = 2
	jobsPerClient = 4
	desProcessors = 1024
)

// Workloads lists the benchmark's five workloads in run order.
var Workloads = []Workload{
	{
		Name: "tcp-wire-p1",
		Why:  "single TCP master, one loopback worker, DTLZ2_3: archive stays ~40 members so wire codec, socket host and runtime dominate; archive work must not show here",
		N:    40000, NWarm: 10000, Deterministic: true, HVFloor: 0.85, Residual: "parallel.host_residual_us",
		open: func(seed uint64, _ *traced) (instance, error) { return &tcpRun{m: 3, eps: 0.1, seed: seed}, nil },
	},
	{
		Name: "tcp-core-p1",
		Why:  "same transport, DTLZ2_5: archive ~1000 and population 2000-4000 make core Suggest+Accept most of the cost; where T_A work shows and wire work barely does",
		N:    20000, NWarm: 8000, Deterministic: true, HVFloor: 0.90, Residual: "parallel.host_residual_us",
		open: func(seed uint64, _ *traced) (instance, error) { return &tcpRun{m: 5, eps: 0.1, seed: seed}, nil },
	},
	{
		Name: "fed-ring-2x1",
		Why:  "two island masters in one process with ring migration every 500 accepts: the second copy of the TCP master loop plus Migrant frames and the epoch barrier",
		N:    20000, NWarm: 5000, Deterministic: true, HVFloor: 0.85, Residual: "federation.host_residual_us",
		open: func(seed uint64, _ *traced) (instance, error) { return &fedRun{seed: seed}, nil },
	},
	{
		Name: "svc-jobs-c2",
		Why:  "job service, 2 closed-loop clients x 4 jobs over a 2-worker fleet: the third master loop under stride leasing and per-job core construction; shows as job latency",
		N:    5000, NWarm: 5000, HVFloor: 0.83, Residual: "jobs.host_residual_us",
		open: openJobs,
	},
	{
		Name: "des-table2-p1024",
		Why:  "one Table II cell on the virtual cluster (DTLZ2_5, P=1024, no sockets): DES engine, cluster and core in the restart-heavy regime; a wire change must show nothing",
		N:    40000, NWarm: 5000, Deterministic: true, HVFloor: 0.90, Residual: "des.engine_residual_us", SyntheticTA: true,
		open: func(seed uint64, _ *traced) (instance, error) { return &desRun{seed: seed}, nil },
	},
}

// FindWorkload returns the named workload.
func FindWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// runLimit bounds any one run: a hung run fails its rep instead of
// hanging the benchmark.
const runLimit = 2 * time.Minute

func dtlz2(m int, eps float64) (problems.Problem, core.Config) {
	return problems.NewDTLZ2(m), core.Config{Epsilons: core.UniformEpsilons(m, eps)}
}

// borgCounts reports the algorithm-state counts of a finished run,
// averaged over bs (the islands of a federation).
func borgCounts(counts map[string]float64, bs ...*core.Borg) {
	k := float64(len(bs))
	for _, b := range bs {
		counts["core.archive_size_final"] += float64(b.Archive().Size()) / k
		counts["core.population_size_final"] += float64(b.Population().Size()) / k
		counts["core.pending_injections_final"] += float64(b.PendingInjections()) / k
		counts["core.restarts"] += float64(b.Restarts())
	}
}

// --- tcp-wire-p1, tcp-core-p1 ---------------------------------------

// tcpRun drives parallel.RunAsyncDistributed on a pre-bound loopback
// listener with one in-process wire.RunWorker. One worker forces the
// result order, so the run is a deterministic function of the seed.
type tcpRun struct {
	m    int
	eps  float64
	seed uint64
}

func (t *tcpRun) close() {}

func (t *tcpRun) run(n uint64, tr *traced) (*outcome, error) {
	prob, alg := dtlz2(t.m, t.eps)
	submit := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- wire.RunWorker(ctx, wire.WorkerConfig{
			Addr:    ln.Addr().String(),
			Resolve: func(string) (problems.Problem, error) { return prob, nil },
		})
	}()
	cfg := parallel.Config{Problem: prob, Algorithm: alg, Evaluations: n, Seed: t.seed}
	if tr != nil {
		cfg.Protocol, cfg.Trace, cfg.Metrics = tr.hooks(prob, alg, t.seed)
	}
	start := time.Now()
	res, err := parallel.RunAsyncDistributed(cfg, parallel.DistributedConfig{Listener: ln, WallLimit: runLimit})
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	// The master's Stop ends the worker; a worker that missed it would
	// redial forever, so give up on it after a grace period.
	var werr error
	select {
	case werr = <-workerDone:
	case <-time.After(5 * time.Second):
		cancel()
		werr = <-workerDone
	}
	out := &outcome{
		attempted: n, evals: res.Evaluations, wallS: wall,
		unitMs:   []float64{1e3 * time.Since(submit).Seconds()},
		archives: []*core.Archive{res.Final.Archive()},
		problem:  prob,
		counts: map[string]float64{
			"master.resubmissions": float64(res.Resubmissions),
			"master.duplicates":    float64(res.DuplicateResults),
		},
	}
	borgCounts(out.counts, res.Final)
	if werr != nil {
		out.failf("worker exited with %v, want a clean stop", werr)
	}
	checkParallel(out, res, n)
	tr.parallelResult(res)
	return out, nil
}

func checkParallel(out *outcome, res *parallel.Result, n uint64) {
	if !res.Completed || res.Evaluations != n {
		out.failf("completed=%v evaluations=%d, want %d", res.Completed, res.Evaluations, n)
	}
	if res.Resubmissions != 0 || res.LostEvaluations != 0 || res.DuplicateResults != 0 {
		out.failf("resubmissions=%d lost=%d duplicates=%d, want 0", res.Resubmissions, res.LostEvaluations, res.DuplicateResults)
	}
}

// --- fed-ring-2x1 ---------------------------------------------------

type fedRun struct{ seed uint64 }

func (f *fedRun) close() {}

func (f *fedRun) run(n uint64, tr *traced) (*outcome, error) {
	const islands = 2
	prob, alg := dtlz2(3, 0.1)
	cfg := federation.Config{
		Problem: prob, Algorithm: alg, Seed: f.seed,
		Islands: islands, Evaluations: n, MigrationEvery: 500, Workers: 1,
		WallLimit: runLimit,
	}
	var mlogs []*federation.MigrantLog
	if tr != nil {
		cfg.Metrics = tr.reg
		for isl := 0; isl < islands; isl++ {
			log, col, _ := tr.hooks(prob, alg, federation.IslandAlgSeed(f.seed, isl))
			cfg.Logs = append(cfg.Logs, log)
			cfg.Tracers = append(cfg.Tracers, col)
			mlogs = append(mlogs, federation.NewMigrantLog())
		}
		cfg.MigrantLogs = mlogs
		tr.migrant = func(source int, epoch uint64) (*core.Solution, bool) {
			if source < 0 || source >= len(mlogs) {
				return nil, false
			}
			return mlogs[source].Solution(epoch)
		}
	}
	start := time.Now()
	res, err := federation.Run(cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: islands * n, evals: res.TotalEvaluations, wallS: wall,
		unitMs:   []float64{1e3 * wall},
		archives: []*core.Archive{res.MergedArchive},
		problem:  prob,
		counts:   map[string]float64{"federation.migrants": float64(res.Migrants)},
	}
	borgCounts(out.counts, res.Islands...)
	out.counts["core.archive_size_final"] = float64(res.MergedArchive.Size())
	lo, hi := math.Inf(1), 0.0
	for isl, st := range res.IslandStats {
		if st.Completed != n {
			out.failf("island %d completed %d evaluations, want %d", isl, st.Completed, n)
		}
		out.counts["master.resubmissions"] += float64(st.Resubmissions)
		out.counts["master.duplicates"] += float64(st.Duplicates)
		if st.Resubmissions != 0 || st.Lost != 0 || st.Duplicates != 0 {
			out.failf("island %d resubmissions=%d lost=%d duplicates=%d, want 0", isl, st.Resubmissions, st.Lost, st.Duplicates)
		}
		lo = math.Min(lo, res.IslandElapsed[isl])
		hi = math.Max(hi, res.IslandElapsed[isl])
	}
	if hi > 0 {
		out.counts["federation.island_skew_pct"] = 100 * (hi - lo) / hi
	}
	return out, nil
}

// --- svc-jobs-c2 ----------------------------------------------------

// jobsRun keeps one scheduler and its two fleet workers across the
// warm-up and the measured run, as a service would.
type jobsRun struct {
	seed     uint64
	s        *jobs.Scheduler
	cancel   context.CancelFunc
	workers  sync.WaitGroup
	stateDir string
	round    uint64 // distinguishes warm-up job seeds from measured ones
}

func openJobs(seed uint64, tr *traced) (instance, error) {
	j := &jobsRun{seed: seed}
	cfg := jobs.Config{FleetListen: "127.0.0.1:0"}
	if tr != nil {
		// The job logs are reachable only through the checkpoint
		// stream, so the traced pass (and only it) persists jobs — under
		// TMPDIR, which the driver points at its own scratch directory.
		dir, err := os.MkdirTemp("", "jobs-")
		if err != nil {
			return nil, err
		}
		j.stateDir = dir
		cfg.StateDir = dir
		cfg.TraceRate = 1
		cfg.Metrics = tr.reg
		cfg.Conn.Metrics = tr.reg
	}
	s, err := jobs.New(cfg)
	if err != nil {
		j.close()
		return nil, err
	}
	j.s = s
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	for w := 0; w < jobsWorkers; w++ {
		j.workers.Add(1)
		go func() {
			defer j.workers.Done()
			_ = wire.RunWorker(ctx, wire.WorkerConfig{Addr: s.FleetAddr()}) // ends with ctx
		}()
	}
	return j, nil
}

func (j *jobsRun) close() {
	if j.cancel != nil {
		j.cancel()
	}
	if j.s != nil {
		j.s.Close()
	}
	j.workers.Wait()
	if j.stateDir != "" {
		os.RemoveAll(j.stateDir)
	}
}

// jobRecord is one finished job as its client saw it.
type jobRecord struct {
	spec     jobs.Spec
	id       string
	submitUs float64
	doneMs   float64 // client-observed submit→done
	status   jobs.Status
}

func (j *jobsRun) run(n uint64, tr *traced) (*outcome, error) {
	perClient := jobsPerClient
	if j.round == 0 {
		perClient = 1 // the warm-up: one job per client
	}
	j.round++
	prob, _ := dtlz2(3, 0.1)
	recs := make([][]jobRecord, jobsClients)
	errs := make([]error, jobsClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < jobsClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				spec := jobs.Spec{
					Problem: prob.Name(), Evaluations: n, Epsilon: 0.1, Priority: 1,
					Seed: j.seed*1000 + j.round*100 + uint64(c*jobsPerClient+k) + 1,
				}
				rec := jobRecord{spec: spec}
				t0 := time.Now()
				st, err := j.s.Submit(&rec.spec)
				rec.submitUs = 1e6 * time.Since(t0).Seconds()
				if err != nil {
					errs[c] = err
					return
				}
				rec.id = st.ID
				for !st.State.Terminal() {
					if time.Since(t0) > runLimit {
						errs[c] = fmt.Errorf("job %s still %s after %v", st.ID, st.State, runLimit)
						return
					}
					time.Sleep(time.Millisecond)
					if st, err = j.s.Get(rec.id); err != nil {
						errs[c] = err
						return
					}
				}
				rec.doneMs = 1e3 * time.Since(t0).Seconds()
				rec.status = st
				recs[c] = append(recs[c], rec)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := &outcome{wallS: wall, problem: prob, counts: map[string]float64{}}
	var firstMs, submitUs []float64
	njobs := 0.0
	for c := range recs {
		for k, rec := range recs[c] {
			st := rec.status
			njobs++
			out.attempted += n
			out.evals += st.Evaluations
			out.unitMs = append(out.unitMs, rec.doneMs)
			submitUs = append(submitUs, rec.submitUs)
			firstMs = append(firstMs, 1e3*(st.FirstResultSeconds-st.SubmittedSeconds))
			out.counts["jobs.leaves_per_job"] += float64(st.Leaves)
			out.counts["master.resubmissions"] += float64(st.Resubmissions)
			out.counts["master.duplicates"] += float64(st.Duplicates)
			if st.State != jobs.StateDone || st.Evaluations != n {
				out.failf("job %s ended %s with %d evaluations (%s), want done with %d", rec.id, st.State, st.Evaluations, st.Error, n)
			}
			if st.Resubmissions != 0 || st.Duplicates != 0 {
				out.failf("job %s resubmissions=%d duplicates=%d, want 0", rec.id, st.Resubmissions, st.Duplicates)
			}
			data, err := j.s.Result(rec.id)
			if err != nil {
				return nil, err
			}
			arch, err := core.LoadArchive(bytes.NewReader(data), 0)
			if err != nil {
				return nil, err
			}
			out.archives = append(out.archives, arch)
			out.counts["core.archive_size_final"] += float64(arch.Size())
			// The k-th jobs of the two clients ran side by side at equal
			// priority: how far apart they finished, as a share of their
			// own duration, is the scheduler's fairness gap.
			if c == 1 && k < len(recs[0]) {
				a, b := recs[0][k].status, st
				da, db := a.FinishedSeconds-a.SubmittedSeconds, b.FinishedSeconds-b.SubmittedSeconds
				if m := (da + db) / 2; m > 0 {
					out.counts["jobs.fair_share_gap_pct"] += 100 * math.Abs(da-db) / m / float64(perClient)
				}
			}
			if tr != nil {
				if err := tr.addJob(j.stateDir, rec.id, &rec.spec); err != nil {
					return nil, err
				}
			}
		}
	}
	out.counts["jobs.leaves_per_job"] /= njobs
	out.counts["core.archive_size_final"] /= njobs
	out.counts["jobs.submit_us"] = Median(submitUs)
	out.counts["jobs.first_result_p50_ms"] = Median(firstMs)
	if tr != nil {
		cols, err := j.s.Traces()
		if err != nil {
			return nil, err
		}
		for _, rec := range append(recs[0], recs[1]...) {
			tr.cols = append(tr.cols, cols[rec.id])
		}
	}
	return out, nil
}

// --- des-table2-p1024 -----------------------------------------------

type desRun struct{ seed uint64 }

func (d *desRun) close() {}

func (d *desRun) run(n uint64, tr *traced) (*outcome, error) {
	prob, alg := dtlz2(5, 0.15)
	cfg := parallel.Config{
		Problem: prob, Algorithm: alg, Processors: desProcessors, Evaluations: n, Seed: d.seed,
		TF: stats.GammaFromMeanCV(0.01, 0.1),
		TA: stats.NewConstant(29e-6),
		TC: stats.NewConstant(6e-6),
	}
	if tr != nil {
		cfg.Protocol, cfg.Trace, cfg.Metrics = tr.hooks(prob, alg, d.seed)
	}
	start := time.Now()
	res, err := parallel.RunAsync(cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: n, evals: res.Evaluations, wallS: wall,
		unitMs:   []float64{1e3 * wall},
		archives: []*core.Archive{res.Final.Archive()},
		exact:    []float64{res.ElapsedTime, res.MasterUtilization},
		problem:  prob,
		counts: map[string]float64{
			"master.resubmissions":   float64(res.Resubmissions),
			"master.duplicates":      float64(res.DuplicateResults),
			"des.virtual_elapsed_s":  res.ElapsedTime,
			"des.master_utilization": res.MasterUtilization,
		},
	}
	borgCounts(out.counts, res.Final)
	checkParallel(out, res, n)
	tr.parallelResult(res)
	return out, nil
}
