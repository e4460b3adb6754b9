// Command borg runs the Borg MOEA (serial, asynchronous master-slave
// on the virtual cluster, or distributed over real TCP with borgd
// workers) on a named test problem and prints the resulting Pareto
// approximation and quality metrics.
//
// Usage:
//
//	borg -problem DTLZ2 -objectives 5 -evals 100000
//	borg -problem UF11 -parallel 64 -tf 0.01 -evals 100000
//	borg -problem DTLZ2 -transport tcp -listen :7070 -evals 100000
//
// Observability (see README.md "Observing a run"):
//
//	borg -parallel 8 -trace run.trace.json        # Chrome/Perfetto timeline
//	borg -parallel 8 -metrics-out metrics.json    # final metrics snapshot
//	borg -parallel 8 -advise-out scaling.jsonl    # live scalability analysis
//	borg -parallel 8 -quality-every 1000 -quality-log run.qlog  # search-quality timeline
//	borg -transport tcp -listen :7070 -debug-addr localhost:6060
//
// With -debug-addr the live scalability advisor also serves
// /debug/scaling (watch it with: borgview top -addr localhost:6060). On
// SIGINT/SIGTERM an instrumented run flushes its final metrics and
// advisor snapshot before exiting, so interrupted runs keep their
// telemetry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"borgmoea"
	"borgmoea/internal/ascii"
	"borgmoea/internal/cli"
	"borgmoea/internal/shutdown"
)

// run returns the process exit code so deferred cleanups still run.
func main() { os.Exit(run()) }

func run() int {
	var (
		problemName = flag.String("problem", "DTLZ2", "problem: DTLZ1-7, ZDT1-4/6 or UF1-11")
		objectives  = flag.Int("objectives", 5, "objective count (DTLZ problems)")
		evals       = flag.Uint64("evals", 100000, "function evaluation budget N")
		epsilon     = flag.Float64("epsilon", 0.1, "archive epsilon (uniform)")
		seed        = flag.Uint64("seed", 1, "random seed")
		parallelP   = flag.Int("parallel", 0, "processor count P for the async master-slave run (0 = serial)")
		transport   = flag.String("transport", "virtual", "parallel transport: virtual (DES cluster), realtime (goroutines) or tcp (borgd workers)")
		listen      = flag.String("listen", "", "master listen address for -transport tcp (e.g. :7070)")
		wallLimit   = flag.Duration("wall-limit", 0, "abort a tcp run after this wall time (0 = none)")
		tf          = flag.Float64("tf", 0.01, "mean evaluation delay in seconds (parallel mode)")
		tfcv        = flag.Float64("tfcv", 0.1, "evaluation delay coefficient of variation")
		mtbf        = flag.Float64("mtbf", 0, "worker mean time between failures in seconds (0 = no faults; parallel mode)")
		mttr        = flag.Float64("mttr", 0.5, "worker mean time to repair in seconds (with -mtbf)")
		leaseT      = flag.Float64("lease-timeout", 0, "master lease timeout in seconds (0 = auto when faults are on)")
		printFront  = flag.Bool("front", false, "print the full Pareto approximation")
		plot        = flag.Bool("plot", false, "render an ASCII scatter of the first two objectives")
		outPath     = flag.String("out", "", "save the final archive as JSON to this path")
		verbose     = flag.Bool("v", false, "verbose (debug-level) logging")
		tracePath   = flag.String("trace", "", "write a Chrome trace_event timeline of the run to this path (open in chrome://tracing or Perfetto)")
		metricsOut  = flag.String("metrics-out", "", "write the run's final metrics snapshot as JSON to this path")
		debugAddr   = flag.String("debug-addr", "", "serve live /debug/vars, /debug/metrics, /debug/scaling and /debug/pprof on this address during the run (e.g. localhost:6060)")
		adviseOut   = flag.String("advise-out", "", "journal the live scalability advisor's reports as JSONL to this path (parallel transports)")
		adviseEvery = flag.Float64("advise-every", 1.0, "seconds of driver time between advisor snapshots (with -advise-out; virtual seconds for -transport virtual)")
		eventLog    = flag.String("event-log", "", "record the master's protocol event log to this path (parallel transports)")
		replayPath  = flag.String("replay", "", "replay a recorded event log off-line instead of running; pass the original run's -problem/-objectives/-epsilon/-seed")
		qualEvery   = flag.Uint64("quality-every", 0, "sample search quality (hypervolume, eps-progress, operator adaptation) every N accepted evaluations (parallel transports; 0 = off)")
		qualWall    = flag.Float64("quality-wall", 0, "also sample search quality every S seconds of driver time (with or instead of -quality-every)")
		qualLog     = flag.String("quality-log", "", "write the run's quality timeline as a QLOG sidecar to this path (implies -quality-every 1000 unless set; read with: borgview timeline -quality)")
	)
	flag.Parse()
	logger := borgmoea.NewLogger(os.Stderr, *verbose)
	fail := func(code int, msg string, args ...any) int {
		logger.Error(msg, args...)
		return code
	}

	problem, err := borgmoea.LookupProblem(*problemName, *objectives)
	if err != nil {
		return fail(2, err.Error())
	}
	cfg := borgmoea.Config{
		Epsilons: borgmoea.UniformEpsilons(problem.NumObjs(), *epsilon),
		Seed:     *seed,
	}

	// Observability sinks, shared by every transport: a metrics
	// registry when anything will read it, an event journal when a
	// trace is requested.
	var reg *borgmoea.MetricsRegistry
	if *metricsOut != "" || *debugAddr != "" {
		reg = borgmoea.NewMetrics()
	}
	var rec *borgmoea.TraceRecorder
	if *tracePath != "" {
		rec = borgmoea.NewTraceRecorder(0)
	}
	var plog *borgmoea.ProtocolLog
	if *eventLog != "" {
		plog = borgmoea.NewProtocolLog()
	}

	// Live scalability advisor: created whenever something will read it
	// (the JSONL journal or the /debug/scaling endpoint). A nil advisor
	// costs the drivers nothing.
	var (
		adv    *borgmoea.ScalingAdvisor
		advMu  sync.Mutex
		advF   *os.File
		advEnc *json.Encoder
	)
	if *adviseOut != "" || *debugAddr != "" {
		acfg := borgmoea.AdvisorConfig{Registry: reg}
		if *adviseOut != "" {
			f, err := os.Create(*adviseOut)
			if err != nil {
				return fail(1, err.Error())
			}
			advF = f
			advEnc = json.NewEncoder(f)
			acfg.SnapshotEvery = *adviseEvery
			acfg.OnSnapshot = func(r borgmoea.AdvisorReport) {
				advMu.Lock()
				advEnc.Encode(r) //nolint:errcheck // best-effort journal
				advMu.Unlock()
			}
		}
		adv = borgmoea.NewScalingAdvisor(acfg)
	}

	// Search-quality sampler: created when a cadence or a QLOG sink
	// asks for it. Sample points detour through the master, so a
	// recorded event log replays to the byte-identical quality timeline
	// (pass the same -quality flags to -replay to regenerate it).
	var quality *borgmoea.QualitySampler
	if *qualEvery > 0 || *qualWall > 0 || *qualLog != "" {
		qe := *qualEvery
		if qe == 0 && *qualWall == 0 {
			qe = 1000
		}
		qcfg := borgmoea.QualitySamplerConfig{
			Every:     qe,
			WallEvery: *qualWall,
			Ref:       borgmoea.RefPointFor(problem.Name(), problem.NumObjs()),
			Metrics:   reg,
		}
		if adv != nil {
			// The sampler feeds the advisor's stall/regression detector;
			// alerts surface in /debug/scaling and the JSONL journal.
			qcfg.OnSample = adv.ObserveQuality
		}
		quality = borgmoea.NewQualitySampler(qcfg)
	}

	// flusher persists whatever survives an early exit: the final
	// metrics snapshot and the advisor's closing report. Shared by the
	// normal path and the signal handler; hooks run at most once.
	var flusher shutdown.Flusher
	if *metricsOut != "" {
		flusher.Add(func() {
			if err := cli.WriteFile(*metricsOut, reg.WriteJSON); err != nil {
				logger.Error("writing metrics", "err", err)
				return
			}
			logger.Info("metrics written", "path", *metricsOut)
		})
	}
	if advF != nil {
		flusher.Add(func() {
			advMu.Lock()
			advEnc.Encode(adv.Report()) //nolint:errcheck // best-effort journal
			err := advF.Close()
			advMu.Unlock()
			if err != nil {
				logger.Error("writing advisor journal", "err", err)
				return
			}
			logger.Info("advisor journal written", "path", *adviseOut,
				"hint", fmt.Sprintf("watch with: borgview top -file %s", *adviseOut))
		})
	}
	if *metricsOut != "" || *adviseOut != "" {
		shutdown.ExitAfterFlush(&flusher, func(s os.Signal) {
			logger.Warn("signal received; flushing telemetry", "signal", s.String())
		})
	}

	if *debugAddr != "" {
		opts := []borgmoea.DebugOption{}
		if adv != nil {
			opts = append(opts, borgmoea.WithDebugHandler("/debug/scaling", adv.Handler()))
		}
		if quality != nil {
			opts = append(opts, borgmoea.WithDebugHandler("/debug/quality", quality.Handler()))
		}
		srv, err := borgmoea.ServeDebug(*debugAddr, reg, opts...)
		if err != nil {
			return fail(1, err.Error())
		}
		defer srv.Close()
		logger.Info("debug listener up", "addr", srv.Addr(),
			"vars", fmt.Sprintf("http://%s/debug/vars", srv.Addr()),
			"scaling", fmt.Sprintf("http://%s/debug/scaling", srv.Addr()))
	}

	var alg *borgmoea.Algorithm
	if *replayPath != "" {
		recorded, err := cli.ReadFile(*replayPath, borgmoea.ReadProtocolLog)
		if err != nil {
			return fail(1, "reading event log", "err", err)
		}
		res, err := borgmoea.ReplayAsync(borgmoea.ParallelConfig{
			Problem:   problem,
			Algorithm: cfg,
			Seed:      *seed,
			Metrics:   reg,
			Quality:   quality,
		}, recorded)
		if err != nil {
			return fail(1, err.Error())
		}
		alg = res.Final
		fmt.Printf("replayed run: events=%d  N=%d  T_P=%.2fs  workers=%d  completed=%v\n",
			len(recorded.Events), res.Evaluations, res.ElapsedTime, res.Processors-1, res.Completed)
		if res.Resubmissions > 0 || res.DuplicateResults > 0 {
			fmt.Printf("recovery: resubmitted=%d lost=%d duplicates=%d\n",
				res.Resubmissions, res.LostEvaluations, res.DuplicateResults)
		}
	} else if *transport == "tcp" {
		if *listen == "" {
			return fail(2, "-transport tcp needs -listen host:port")
		}
		if *mtbf > 0 {
			return fail(2, "-mtbf needs a virtual-time transport; tcp workers fail for real")
		}
		pcfg := borgmoea.ParallelConfig{
			Problem:      problem,
			Algorithm:    cfg,
			Evaluations:  *evals,
			Seed:         *seed,
			LeaseTimeout: *leaseT,
			Metrics:      reg,
			Events:       rec,
			Protocol:     plog,
			Advisor:      adv,
			Quality:      quality,
		}
		logger.Info("listening for workers", "addr", *listen, "hint", "start workers with: borgd -connect host:port")
		res, err := borgmoea.RunAsyncDistributed(pcfg, borgmoea.DistributedConfig{
			Listen:    *listen,
			WallLimit: *wallLimit,
			Logf:      borgmoea.LogfAdapter(logger),
		})
		if err != nil {
			return fail(1, err.Error())
		}
		alg = res.Final
		fmt.Printf("distributed master-slave: workers=%d  T_P=%.2fs  completed=%v  mean-TF=%.4fs  master-util=%.2f\n",
			res.Processors-1, res.ElapsedTime, res.Completed, res.MeanTF, res.MasterUtilization)
		if res.Resubmissions > 0 || res.DuplicateResults > 0 {
			fmt.Printf("recovery: resubmitted=%d lost=%d duplicates=%d\n",
				res.Resubmissions, res.LostEvaluations, res.DuplicateResults)
		}
	} else if *parallelP > 0 {
		pcfg := borgmoea.ParallelConfig{
			Problem:      problem,
			Algorithm:    cfg,
			Processors:   *parallelP,
			Evaluations:  *evals,
			TF:           borgmoea.GammaFromMeanCV(*tf, *tfcv),
			Seed:         *seed,
			LeaseTimeout: *leaseT,
			Metrics:      reg,
			Events:       rec,
			Protocol:     plog,
			Advisor:      adv,
			Quality:      quality,
		}
		if *mtbf > 0 {
			if *mttr <= 0 {
				return fail(2, "-mttr must be positive when -mtbf is set")
			}
			// Crash-recover faults on every worker at the requested
			// MTBF/MTTR; the lease protocol resubmits lost work.
			f := *mttr / (*mtbf + *mttr)
			pcfg.Fault = borgmoea.FailedFractionPlan(f, *mttr, *seed)
		}
		run := borgmoea.RunAsync
		switch *transport {
		case "virtual":
		case "realtime":
			run = borgmoea.RunAsyncRealtime
		default:
			return fail(2, "unknown transport (want virtual, realtime or tcp)", "transport", *transport)
		}
		res, err := run(pcfg)
		if err != nil {
			return fail(1, err.Error())
		}
		alg = res.Final
		fmt.Printf("async master-slave (%s): P=%d  T_P=%.2fs  speedup=%.1f  efficiency=%.2f  master-util=%.2f\n",
			*transport, *parallelP, res.ElapsedTime, res.Speedup(), res.Efficiency(), res.MasterUtilization)
		if *mtbf > 0 {
			fmt.Printf("faults: completed=%v crashes=%d recoveries=%d resubmitted=%d lost=%d duplicates=%d messages-lost=%d\n",
				res.Completed, res.WorkerCrashes, res.WorkerRecoveries,
				res.Resubmissions, res.LostEvaluations, res.DuplicateResults, res.MessagesLost)
		}
	} else {
		if *transport != "virtual" {
			return fail(2, "-transport needs -parallel (or -listen for tcp)", "transport", *transport)
		}
		if *tracePath != "" || *metricsOut != "" || *eventLog != "" || *adviseOut != "" || quality != nil {
			logger.Warn("-trace/-metrics-out/-event-log/-advise-out/-quality-* instrument the parallel drivers; the serial run records nothing")
		}
		var err error
		if alg, err = borgmoea.NewBorg(problem, cfg); err != nil {
			return fail(1, err.Error())
		}
		alg.Run(*evals, nil)
		fmt.Printf("serial run: N=%d\n", *evals)
	}

	if *tracePath != "" {
		if err := cli.WriteFile(*tracePath, rec.WriteChromeTrace); err != nil {
			return fail(1, "writing trace", "err", err)
		}
		logger.Info("trace written", "path", *tracePath, "events", rec.Len(), "dropped", rec.Dropped())
	}
	flusher.Flush()
	if plog != nil && len(plog.Events) > 0 {
		if err := cli.WriteLog(*eventLog, plog); err != nil {
			return fail(1, "writing event log", "err", err)
		}
		logger.Info("event log written", "path", *eventLog, "events", len(plog.Events),
			"hint", fmt.Sprintf("replay with: borg -replay %s -problem %s -objectives %d -epsilon %g -seed %d",
				*eventLog, *problemName, *objectives, *epsilon, *seed))
	}
	if quality != nil && *qualLog != "" {
		if err := cli.WriteLog(*qualLog, quality.Log()); err != nil {
			return fail(1, "writing quality log", "err", err)
		}
		logger.Info("quality log written", "path", *qualLog, "samples", len(quality.Log().Samples),
			"hint", fmt.Sprintf("render with: borgview timeline -quality %s", *qualLog))
	}

	front := alg.Archive().Objectives()
	fmt.Printf("problem=%s evaluations=%d archive=%d restarts=%d\n",
		problem.Name(), alg.Evaluations(), alg.Archive().Size(), alg.Restarts())

	m := problem.NumObjs()
	ref := borgmoea.RefPointFor(problem.Name(), m)
	hv := borgmoea.HypervolumeMC(front, ref, borgmoea.DefaultHVSamples, 12345)
	fmt.Printf("hypervolume=%.4f (MC, ref %.1f)", hv, ref[0])
	if strings.HasPrefix(problem.Name(), "DTLZ2") || strings.HasPrefix(problem.Name(), "UF11") {
		fmt.Printf("  normalized=%.3f", hv/borgmoea.IdealSphereHypervolume(m, ref[0]))
	}
	fmt.Println()

	names := alg.OperatorNames()
	probs := alg.OperatorProbabilities()
	fmt.Print("operators:")
	for i := range names {
		fmt.Printf("  %s=%.3f", names[i], probs[i])
	}
	fmt.Println()

	if *plot {
		pts := make([][]float64, len(front))
		for i, f := range front {
			pts[i] = f[:2]
		}
		fmt.Print(ascii.Scatter(pts, 70, 20))
	}
	if *printFront {
		cli.PrintFront(front)
	}
	if *outPath != "" {
		if err := cli.WriteFile(*outPath, func(w io.Writer) error {
			return borgmoea.SaveArchive(w, alg.Archive())
		}); err != nil {
			return fail(1, "saving archive", "err", err)
		}
		logger.Info("archive saved", "path", *outPath)
	}
	return 0
}
