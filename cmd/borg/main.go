// Command borg runs the Borg MOEA (serial, asynchronous master-slave
// on the virtual cluster, or distributed over real TCP with borgd
// workers) on a named test problem and prints the resulting Pareto
// approximation and quality metrics. With -islands k it runs k such
// masters as islands that pass one ε-archive member around a ring
// every -migrate accepts: the paper's P_UB = T_F/(2·T_C + T_A) binds
// each island separately, so k islands put up to k·P_UB processors to
// use (§VI). -evals is then the budget of each island, and -out saves
// the merged archive.
//
// Usage:
//
//	borg -problem DTLZ2 -objectives 5 -evals 100000
//	borg -problem UF11 -parallel 64 -tf 0.01 -evals 100000
//	borg -problem DTLZ2 -transport tcp -listen :7070 -evals 100000
//	borg -islands 4 -parallel 16 -tf 0.001 -evals 25000 -migrate 500
//	borg -islands 2 -transport tcp -listen :7070,:7071 -evals 25000  # one borgd fleet per island
//
// Observability (see README.md "Observing a run"):
//
//	borg -parallel 8 -trace run.trace.json        # Chrome/Perfetto timeline + T_F/T_C/T_A attribution
//	borg -parallel 8 -metrics-out metrics.json    # final metrics snapshot
//	borg -parallel 8 -advise-out scaling.jsonl    # live scalability analysis
//	borg -parallel 8 -quality-every 1000 -event-log run.bmel  # event log naming its run
//	borg -replay run.bmel -out replayed.json      # the run again, offline, no run flags
//	borgview timeline -quality run.bmel           # its search-quality timeline
//	borg -islands 2 -parallel 4 -event-log run/   # island-<i>.bmel and island-<i>.migrants
//	borg -replay run/ -out replayed.json          # the federation again, offline
//	borg -transport tcp -listen :7070 -debug-addr localhost:6060
//
// With -debug-addr the run serves its metrics on /debug/vars (the
// document -metrics-out writes at the end), profiles on demand under
// /debug/pprof/ (for go tool pprof), and the live scalability advisor's
// /debug/scaling and the quality sampler's /debug/quality (watch them
// with: borgview top -addr localhost:6060, or borgview top -fed for tcp
// islands). The event log streams to disk as the run goes; on
// SIGINT/SIGTERM an instrumented run closes it and flushes its final
// metrics and advisor snapshot before exiting, so interrupted runs keep
// their telemetry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	"borgmoea"
	"borgmoea/internal/ascii"
	"borgmoea/internal/cli"
	"borgmoea/internal/httpd"
	"borgmoea/internal/master"
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
		transport   = flag.String("transport", "virtual", "parallel transport: virtual (DES cluster) or tcp (borgd workers)")
		listen      = flag.String("listen", "", "master listen address for -transport tcp (e.g. :7070); with -islands k, k comma-separated addresses")
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
		debugAddr   = flag.String("debug-addr", "", "serve live /debug/vars, /debug/scaling, /debug/pprof and, with -quality-*, /debug/quality on this address during the run (e.g. localhost:6060)")
		adviseOut   = flag.String("advise-out", "", "journal the live scalability advisor's reports as JSONL to this path (parallel transports)")
		adviseEvery = flag.Float64("advise-every", 1.0, "seconds of driver time between advisor snapshots (with -advise-out; virtual seconds for -transport virtual)")
		eventLog    = flag.String("event-log", "", "record the master's protocol event log to this path (parallel transports); with -islands k, a directory of island-<i>.bmel and island-<i>.migrants")
		replayPath  = flag.String("replay", "", "replay a recorded event log, or a federation's -event-log directory, off-line instead of running; the log names its run (a version-1 log needs the original -problem/-objectives/-epsilon/-seed)")
		qualEvery   = flag.Uint64("quality-every", 0, "sample search quality (hypervolume, eps-progress, operator adaptation) every N accepted evaluations; the samples ride -event-log (render with: borgview timeline -quality) (parallel transports; 0 = off)")
		qualWall    = flag.Float64("quality-wall", 0, "also sample search quality every S seconds of driver time (with or instead of -quality-every)")
		islands     = flag.Int("islands", 1, "island masters k; with k > 1 each island runs -parallel P processors (virtual) or its own -listen address (tcp), -evals each, and -event-log names a directory")
		migrate     = flag.Uint64("migrate", 500, "with -islands: send one archive member to the ring successor every this many accepts per island (0 = off)")
	)
	flag.Parse()
	logger := borgmoea.NewLogger(os.Stderr, *verbose)
	fail := func(code int, msg string, args ...any) int {
		logger.Error(msg, args...)
		return code
	}
	if *transport != "virtual" && *transport != "tcp" {
		return fail(2, "unknown transport (want virtual or tcp)", "transport", *transport)
	}

	k := *islands
	if k < 1 {
		return fail(2, "-islands must be at least 1")
	}

	spec := master.Spec{Problem: *problemName, Objectives: *objectives, Evaluations: *evals,
		Epsilon: *epsilon, Seed: *seed}
	// A replay reads one log, or a federation's directory of island
	// logs; island 0's header names the run.
	var recorded *borgmoea.ProtocolLog
	replayDir := false
	if *replayPath != "" {
		first := *replayPath
		if fi, err := os.Stat(first); err == nil && fi.IsDir() {
			replayDir, first = true, cli.IslandPath(first, 0, "bmel")
		}
		var err error
		if recorded, err = cli.ReadFile(first, borgmoea.ReadProtocolLog); err != nil {
			return fail(1, "reading event log", "err", err)
		}
		if spec, err = cli.ReplaySpec(recorded.Meta.Run, spec); err != nil {
			return fail(2, err.Error())
		} else if recorded.Meta.Run == nil {
			logger.Warn("a version-1 event log does not name its run; replaying the run the flags name")
		}
	}
	if recorded == nil && k > 1 {
		if *mtbf > 0 {
			return fail(2, "-mtbf needs a single master; islands inject no faults")
		}
		if *transport == "virtual" && *parallelP <= 0 {
			return fail(2, "-islands on the virtual transport needs -parallel P, the processors of each island")
		}
	}
	// A recording flag the run cannot serve says so and is dropped: a
	// replay or a serial run has no live run to instrument (a replay
	// still feeds -metrics-out), virtual islands run no tracer, sampler
	// or advisor, and tcp islands keep no advisor journal.
	var dropped, why string
	switch {
	case recorded != nil || (*transport == "virtual" && *parallelP <= 0):
		dropped, why = " trace event-log advise-out quality-every quality-wall ", "a replay or a serial run records nothing for them"
		if recorded == nil {
			dropped += "metrics-out "
		}
	case k > 1 && *transport == "virtual":
		dropped, why = " trace advise-out quality-every quality-wall ", "virtual islands record nothing for them"
	case k > 1:
		dropped, why = " advise-out ", "tcp islands record nothing for them"
	}
	var live []string
	flag.Visit(func(f *flag.Flag) {
		if strings.Contains(dropped, " "+f.Name+" ") {
			live = append(live, f.Name)
		}
	})
	if len(live) > 0 {
		logger.Warn("-" + strings.Join(live, ", -") + " instrument a live parallel run; " + why)
		for _, name := range live {
			flag.Set(name, flag.Lookup(name).DefValue) //nolint:errcheck // the default parsed once already
		}
	}
	if recorded == nil {
		spec.QualityEvery = *qualEvery
	}
	problem, cfg, err := spec.Config()
	if err != nil {
		return fail(2, err.Error())
	}

	// Observability sinks, shared by every transport: a metrics
	// registry when anything will read it; per master, a trace collector
	// that keeps every evaluation's span tree, a quality sampler and an
	// event log, when each is asked for.
	var reg *borgmoea.MetricsRegistry
	if *metricsOut != "" || *debugAddr != "" {
		reg = borgmoea.NewMetrics()
	}
	var (
		tracers []*borgmoea.TraceCollector
		plogs   []*borgmoea.ProtocolLog
		seals   []func()
		mlogs   []*borgmoea.MigrantLog
	)
	for i := 0; *tracePath != "" && i < k; i++ {
		tracers = append(tracers, borgmoea.NewTraceCollector(borgmoea.TraceCollectorConfig{RunID: *seed ^ uint64(i), Rate: 1}))
	}

	// flusher persists whatever survives an early exit: the event logs,
	// the final metrics snapshot and the advisor's closing report.
	// Shared by the normal path and the signal handler; hooks run at
	// most once.
	var flusher shutdown.Flusher
	if *eventLog != "" && k > 1 {
		if err := os.MkdirAll(*eventLog, 0o755); err != nil {
			return fail(1, err.Error())
		}
	}
	for i := 0; *eventLog != "" && i < k; i++ {
		path := *eventLog
		if k > 1 {
			path = cli.IslandPath(*eventLog, i, "bmel")
		}
		plog := borgmoea.NewProtocolLog() // its header names the run: it replays without flags
		plog.Meta.Run = &master.RunHeader{Spec: &spec}
		seal, err := cli.StreamEventLog(&flusher, logger, path, plog)
		if err != nil {
			return fail(1, "creating event log", "err", err)
		}
		plogs, seals = append(plogs, plog), append(seals, seal)
		if k == 1 {
			continue
		}
		mlog, mpath := borgmoea.NewMigrantLog(), cli.IslandPath(*eventLog, i, "migrants")
		flusher.Add(func() {
			if err := cli.WriteLog(mpath, mlog); err != nil {
				logger.Error("writing migrant log", "path", mpath, "err", err)
			}
		})
		mlogs = append(mlogs, mlog)
	}

	// Live scalability advisor of a single master: created whenever
	// something will read it (the JSONL journal or the /debug/scaling
	// endpoint). A nil advisor costs the drivers nothing. Tcp islands
	// report to a federated roll-up instead.
	var (
		adv    *borgmoea.ScalingAdvisor
		fed    = borgmoea.NewScalingFederation()
		advMu  sync.Mutex
		advF   *os.File
		advEnc *json.Encoder
	)
	if k == 1 && (*adviseOut != "" || *debugAddr != "") {
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

	// Search-quality samplers: created when a cadence asks for it. Sample
	// points detour through the master, so a recorded event log replays
	// to the bit-identical quality timeline (borgview timeline -quality).
	var quality []*borgmoea.QualitySampler
	for i := 0; (*qualEvery > 0 || *qualWall > 0) && i < k; i++ {
		qcfg := borgmoea.QualitySamplerConfig{
			Every:     *qualEvery,
			WallEvery: *qualWall,
			Ref:       borgmoea.RefPointFor(problem.Name(), problem.NumObjs()),
			Metrics:   reg,
		}
		if k > 1 {
			// Per-island gauge prefixes keep the series apart on the
			// shared registry (island0.quality.hypervolume, ...).
			qcfg.GaugePrefix = fmt.Sprintf("island%d.quality.", i)
		}
		if adv != nil {
			// The sampler feeds the advisor's stall/regression detector;
			// alerts surface in /debug/scaling and the JSONL journal.
			qcfg.OnSample = adv.ObserveQuality
		}
		quality = append(quality, borgmoea.NewQualitySampler(qcfg))
	}

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
	if *metricsOut != "" || *adviseOut != "" || *eventLog != "" {
		shutdown.ExitAfterFlush(&flusher, func(s os.Signal) {
			logger.Warn("signal received; flushing telemetry", "signal", s.String())
		})
	}

	if *debugAddr != "" {
		opts := []httpd.DebugOption{}
		switch {
		case k > 1 && *transport == "tcp":
			opts = append(opts, httpd.WithHandler("/debug/scaling", httpd.FederationHandler(fed)))
		case adv != nil:
			opts = append(opts, httpd.WithHandler("/debug/scaling", httpd.AdvisorHandler(adv)))
		}
		switch {
		case len(quality) > 1:
			opts = append(opts, httpd.WithHandler("/debug/quality", httpd.FederationQualityHandler(quality)))
		case len(quality) == 1:
			opts = append(opts, httpd.WithHandler("/debug/quality", httpd.QualityHandler(quality[0])))
		}
		srv, err := httpd.ServeDebug(*debugAddr, reg, opts...)
		if err != nil {
			return fail(1, err.Error())
		}
		defer srv.Close()
		logger.Info("debug listener up", "addr", srv.Addr(),
			"vars", fmt.Sprintf("http://%s/debug/vars", srv.Addr()),
			"scaling", fmt.Sprintf("http://%s/debug/scaling", srv.Addr()))
	}

	// The single master's config; island runs override what each island
	// gets of it.
	pcfg := borgmoea.ParallelConfig{
		Problem:      problem,
		Algorithm:    cfg,
		Processors:   *parallelP,
		Evaluations:  *evals,
		TF:           borgmoea.GammaFromMeanCV(*tf, *tfcv),
		Seed:         *seed,
		LeaseTimeout: *leaseT,
		Metrics:      reg,
		Advisor:      adv,
	}
	if k == 1 {
		if len(tracers) > 0 {
			pcfg.Trace = tracers[0]
		}
		if len(plogs) > 0 {
			pcfg.Protocol = plogs[0]
		}
		if len(quality) > 0 {
			pcfg.Quality = quality[0]
		}
	}
	var listenAddrs []string
	if *transport == "tcp" && recorded == nil {
		if *listen == "" {
			return fail(2, "-transport tcp needs -listen host:port (one per island, comma-separated)")
		}
		if *mtbf > 0 {
			return fail(2, "-mtbf needs a virtual-time transport; tcp workers fail for real")
		}
		if listenAddrs = strings.Split(*listen, ","); len(listenAddrs) != k {
			return fail(2, fmt.Sprintf("-listen names %d addresses for %d islands", len(listenAddrs), k))
		}
	}

	// masters holds every master's final Borg; arch is the archive the
	// run reports and -out saves, the merged one of a federation.
	var (
		masters []*borgmoea.Algorithm
		arch    *borgmoea.Archive
	)
	switch {
	case replayDir:
		paths, rep, _, err := cli.Replay(*replayPath, 0, spec, false)
		if err != nil {
			return fail(1, "replaying", "err", err)
		}
		masters, arch = rep.Islands, rep.MergedArchive
		fmt.Printf("replayed federation: islands=%d  merged-archive=%d\n", len(paths), arch.Size())
	case recorded != nil:
		res, err := borgmoea.ReplayAsync(borgmoea.ParallelConfig{
			Problem:   problem,
			Algorithm: cfg,
			Seed:      spec.Seed,
			Metrics:   reg,
		}, recorded)
		if err != nil {
			return fail(1, err.Error())
		}
		masters = []*borgmoea.Algorithm{res.Final}
		fmt.Printf("replayed run: events=%d  N=%d  T_P=%.2fs  workers=%d  completed=%v\n",
			len(recorded.Events), res.Evaluations, res.ElapsedTime, res.Processors-1, res.Completed)
		if res.Resubmissions > 0 || res.DuplicateResults > 0 {
			fmt.Printf("recovery: resubmitted=%d lost=%d duplicates=%d\n",
				res.Resubmissions, res.LostEvaluations, res.DuplicateResults)
		}
	case k > 1 && *transport == "tcp":
		fcfg := borgmoea.FederationConfig{
			Problem:        problem,
			Algorithm:      cfg,
			Seed:           *seed,
			Islands:        k,
			Evaluations:    *evals,
			MigrationEvery: *migrate,
			ListenAddrs:    listenAddrs,
			LeaseTimeout:   time.Duration(*leaseT * float64(time.Second)),
			WallLimit:      *wallLimit,
			Logs:           plogs,
			MigrantLogs:    mlogs,
			Tracers:        tracers,
			Federation:     fed,
			Quality:        quality,
			Metrics:        reg,
			Logf:           borgmoea.LogfAdapter(logger),
			OnListen: func(island int, addr string) {
				logger.Info("island listening for workers", "island", island, "addr", addr,
					"hint", fmt.Sprintf("start workers with: borgd -connect %s", addr))
			},
		}
		res, err := borgmoea.RunFederation(fcfg)
		if err != nil {
			return fail(1, err.Error())
		}
		masters, arch = res.Islands, res.MergedArchive
		fmt.Printf("federation: islands=%d  P=%d  N=%d  T_P=%.2fs  migrants=%d  merged-archive=%d\n",
			k, res.Processors, res.TotalEvaluations, res.ElapsedTime, res.Migrants, arch.Size())
		if fr := res.Federation.Report(); fr.SingleMasterPUB > 0 {
			fmt.Printf("scaling: single-master P_UB=%.1f  aggregate-speedup=%.1f  effective-processors=%.1f  ceiling-ratio=%.2f\n",
				fr.SingleMasterPUB, fr.AggregateObservedSpeedup, fr.AggregateEffectiveProcessors, fr.CeilingRatio)
		}
	case k > 1:
		res, err := borgmoea.RunIslands(borgmoea.IslandsConfig{
			Base:           pcfg,
			Islands:        k,
			MigrationEvery: *migrate,
			Logs:           plogs,
			MigrantLogs:    mlogs,
		})
		if err != nil {
			return fail(1, err.Error())
		}
		masters, arch = res.Islands, res.MergedArchive
		fmt.Printf("async islands (virtual): islands=%d  P=%d  T_P=%.2fs  migrants=%d  merged-archive=%d\n",
			k, k**parallelP, res.ElapsedTime, res.Migrants, arch.Size())
	case *transport == "tcp":
		logger.Info("listening for workers", "addr", *listen, "hint", "start workers with: borgd -connect host:port")
		res, err := borgmoea.RunAsyncDistributed(pcfg, borgmoea.DistributedConfig{
			Listen:    *listen,
			WallLimit: *wallLimit,
			Logf:      borgmoea.LogfAdapter(logger),
		})
		if err != nil {
			return fail(1, err.Error())
		}
		masters = []*borgmoea.Algorithm{res.Final}
		fmt.Printf("distributed master-slave: workers=%d  T_P=%.2fs  completed=%v  mean-TF=%.4fs  master-util=%.2f\n",
			res.Processors-1, res.ElapsedTime, res.Completed, res.MeanTF, res.MasterUtilization)
		if res.Resubmissions > 0 || res.DuplicateResults > 0 {
			fmt.Printf("recovery: resubmitted=%d lost=%d duplicates=%d\n",
				res.Resubmissions, res.LostEvaluations, res.DuplicateResults)
		}
	case *parallelP > 0:
		if *mtbf > 0 {
			if *mttr <= 0 {
				return fail(2, "-mttr must be positive when -mtbf is set")
			}
			// Crash-recover faults on every worker at the requested
			// MTBF/MTTR; the lease protocol resubmits lost work.
			f := *mttr / (*mtbf + *mttr)
			pcfg.Fault = borgmoea.FailedFractionPlan(f, *mttr, *seed)
		}
		res, err := borgmoea.RunAsync(pcfg)
		if err != nil {
			return fail(1, err.Error())
		}
		masters = []*borgmoea.Algorithm{res.Final}
		fmt.Printf("async master-slave (virtual): P=%d  T_P=%.2fs  speedup=%.1f  efficiency=%.2f  master-util=%.2f\n",
			*parallelP, res.ElapsedTime, res.Speedup(), res.Efficiency(), res.MasterUtilization)
		if *mtbf > 0 {
			fmt.Printf("faults: completed=%v crashes=%d recoveries=%d resubmitted=%d lost=%d duplicates=%d messages-lost=%d\n",
				res.Completed, res.WorkerCrashes, res.WorkerRecoveries,
				res.Resubmissions, res.LostEvaluations, res.DuplicateResults, res.MessagesLost)
		}
	default:
		alg, err := borgmoea.NewBorg(problem, cfg)
		if err != nil {
			return fail(1, err.Error())
		}
		alg.Run(*evals, nil)
		masters = []*borgmoea.Algorithm{alg}
		fmt.Printf("serial run: N=%d\n", *evals)
	}
	if arch == nil {
		arch = masters[0].Archive()
	}

	if len(tracers) > 0 {
		if err := writeTrace(logger, *tracePath, tracers); err != nil {
			return fail(1, "writing trace", "err", err)
		}
	}
	for _, seal := range seals {
		seal()
	}
	flusher.Flush()
	if len(plogs) > 0 {
		hint := fmt.Sprintf("replay with: borg -replay %s", *eventLog)
		if len(quality) > 0 {
			hint += fmt.Sprintf("; render its quality timeline with: borgview timeline -quality %s", *eventLog)
		}
		logger.Info("event log written", "path", *eventLog, "hint", hint)
	}

	var evaluations, restarts uint64
	for _, b := range masters {
		evaluations += b.Evaluations()
		restarts += uint64(b.Restarts())
	}
	front := arch.Objectives()
	fmt.Printf("problem=%s evaluations=%d archive=%d restarts=%d\n",
		problem.Name(), evaluations, arch.Size(), restarts)

	m := problem.NumObjs()
	ref := borgmoea.RefPointFor(problem.Name(), m)
	hv := borgmoea.HypervolumeMC(front, ref, borgmoea.DefaultHVSamples, 12345)
	fmt.Printf("hypervolume=%.4f (MC, ref %.1f)", hv, ref[0])
	if strings.HasPrefix(problem.Name(), "DTLZ2") || strings.HasPrefix(problem.Name(), "UF11") {
		fmt.Printf("  normalized=%.3f", hv/borgmoea.IdealSphereHypervolume(m, ref[0]))
	}
	fmt.Println()

	for i, b := range masters {
		names, probs := b.OperatorNames(), b.OperatorProbabilities()
		if len(masters) > 1 {
			fmt.Printf("island %d ", i)
		}
		fmt.Print("operators:")
		for j := range names {
			fmt.Printf("  %s=%.3f", names[j], probs[j])
		}
		fmt.Println()
	}

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
			return borgmoea.SaveArchive(w, arch)
		}); err != nil {
			return fail(1, "saving archive", "err", err)
		}
		logger.Info("archive saved", "path", *outPath)
	}
	return 0
}

// writeTrace writes every master's span forest as one Chrome
// trace_event file (one process per island) and prints where the
// traced evaluations spent their time: the paper's model terms T_F,
// T_C (send, receive) and T_A plus master queue wait, per island and
// in total, and the empirical Eq. 3 ceiling from the measured means.
func writeTrace(logger *slog.Logger, path string, tracers []*borgmoea.TraceCollector) error {
	labels := make([]string, len(tracers))
	forests := make([]borgmoea.TraceForest, len(tracers))
	var all borgmoea.TraceForest
	var dropped uint64
	for i, col := range tracers {
		// WriteChromeForests appends " master" and " workers" to a label.
		labels[i], forests[i] = "borg", col.Forest()
		all = append(all, forests[i]...)
		dropped += col.Dropped()
		if len(tracers) > 1 {
			labels[i] = fmt.Sprintf("island-%d", i)
			printAttribution(labels[i], forests[i].Attribution())
		}
	}
	if err := cli.WriteFile(path, func(w io.Writer) error {
		return borgmoea.WriteChromeTraceForests(w, labels, forests)
	}); err != nil {
		return err
	}
	total := all.Attribution()
	printAttribution("total", total)
	// Eq. 3 charges two T_C per evaluation. A socket master meters no
	// receive (tc.recv has no samples), so its send counts twice.
	tc, terms := total.TCSend.Mean+total.TCRecv.Mean, "tc.send.mean+tc.recv.mean"
	if total.TCRecv.N == 0 {
		tc, terms = 2*total.TCSend.Mean, "2*tc.send.mean"
	}
	if denom := tc + total.TA.Mean; total.TF.N > 0 && denom > 0 {
		fmt.Printf("empirical ceiling: P_UB = tf.mean/(%s+ta.mean) = %.1f\n", terms, total.TF.Mean/denom)
	}
	logger.Info("trace written", "path", path, "traces", len(all), "dropped", dropped)
	return nil
}

func printAttribution(name string, a borgmoea.TraceAttribution) {
	fmt.Printf("%s: evals=%d expired=%d migrants=%d traced-wall=%.3fs\n",
		name, a.Evals, a.Expired, a.Migrants, a.Wall)
	fmt.Printf("  %-10s %7s %12s %12s %7s\n", "term", "n", "sum", "mean", "share")
	row := func(term string, t borgmoea.TraceTermStats) {
		if t.N == 0 {
			return
		}
		fmt.Printf("  %-10s %7d %11.3fs %11.6fs %6.1f%%\n", term, t.N, t.Sum, t.Mean, 100*t.Share)
	}
	row("tf", a.TF)
	row("tc.send", a.TCSend)
	row("tc.recv", a.TCRecv)
	row("queue.wait", a.Wait)
	row("ta", a.TA)
	if a.Other > 0 && a.Wall > 0 {
		fmt.Printf("  %-10s %7s %11.3fs %12s %6.1f%%\n", "other", "", a.Other, "", 100*a.Other/a.Wall)
	}
}
