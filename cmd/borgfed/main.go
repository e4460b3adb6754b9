// Command borgfed launches a multi-master federation: k island
// masters in one process, each a full asynchronous master-slave Borg
// instance over its own TCP worker pool, exchanging ε-archive members
// in a ring and optionally streaming archive deltas to a merging root.
// The paper's Eq. 4 ceiling P_UB = T_F/(2·T_C+T_A) binds each island
// separately, so the federation's aggregate useful processor count
// approaches k·P_UB — this is the tool that takes a run past the
// single-master bound on real sockets.
//
// Usage:
//
//	borgfed -islands 4 -workers 8 -evals 25000 -migrate 500
//	borgfed -islands 4 -evals 25000 -listen :7070,:7071,:7072,:7073   # external borgd fleets
//	borgfed -islands 2 -workers 4 -debug-addr localhost:6060          # live federated /debug/scaling
//	borgfed -islands 2 -workers 4 -log-dir run/                       # record BMEL + migrant logs
//	borgfed -islands 2 -workers 4 -log-dir run/ -trace-rate 1         # + distributed evaluation traces
//	borgfed -replay-dir run/                                          # replay a recorded federation
//
// With -debug-addr the federated scalability roll-up serves
// /debug/scaling (watch it with: borgview top -fed -addr localhost:6060;
// ?island=i narrows to one island). With -log-dir every island writes
// island-<i>.bmel, whose header names the run, and island-<i>.migrants;
// -replay-dir reconstructs the identical merged front from those files,
// offline, with no run flags (a version-1 log needs them). -trace-rate
// samples distributed per-evaluation traces (advisor-flagged
// stragglers are always kept); with -log-dir each island adds an
// island-<i>.trace sidecar that borgview trace turns into the run's
// critical-path attribution, offline. -quality-every samples every
// island's search quality (hypervolume, ε-progress, operator
// adaptation) on that cadence: with -debug-addr the federation serves
// per-island plus merged-front quality on /debug/quality, and with
// -log-dir the sample points ride each island's event log, so
// borgview timeline -quality run/ replays every island's timeline bit
// for bit.
//
// BMEL logs stream to disk at event granularity and every sidecar is
// flushed on SIGINT/SIGTERM, so an interrupted federation keeps its
// telemetry up to the signal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"borgmoea"
	"borgmoea/internal/cli"
	"borgmoea/internal/httpd"
	"borgmoea/internal/master"
	"borgmoea/internal/shutdown"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		problemName = flag.String("problem", "DTLZ2", "problem: DTLZ1-7, ZDT1-4/6 or UF1-11")
		objectives  = flag.Int("objectives", 3, "objective count (DTLZ problems)")
		epsilon     = flag.Float64("epsilon", 0.1, "archive epsilon (uniform)")
		seed        = flag.Uint64("seed", 1, "random seed")
		islands     = flag.Int("islands", 2, "island master count k")
		evals       = flag.Uint64("evals", 10000, "function evaluation budget per island")
		migrate     = flag.Uint64("migrate", 500, "migration epoch: exchange one archive member around the ring every this many accepts per island (0 = off)")
		workers     = flag.Int("workers", 4, "in-process workers per island (0 = external borgd fleets dial the printed addresses)")
		delay       = flag.Float64("delay", 0, "mean synthetic per-evaluation delay in seconds for in-process workers (0 = none)")
		delayCV     = flag.Float64("delay-cv", 0.1, "synthetic delay coefficient of variation (with -delay)")
		simTA       = flag.Float64("sim-ta", 0, "extra simulated master critical-section seconds per accept (stretches T_A, lowering each island's P_UB)")
		listen      = flag.String("listen", "", "comma-separated per-island worker listen addresses (default 127.0.0.1:0 each)")
		leaseT      = flag.Duration("lease-timeout", 0, "master lease timeout (0 = off; set it when external workers can fail)")
		wallLimit   = flag.Duration("wall-limit", 0, "abort the run after this wall time (0 = 5m default)")
		root        = flag.Bool("root", true, "run the merging root the islands stream archive deltas to")
		deltaEvery  = flag.Uint64("delta-every", 500, "stream recent archive members to the root every this many accepts per island (0 = off)")
		debugAddr   = flag.String("debug-addr", "", "serve the federated /debug/scaling (plus /debug/vars, /debug/pprof) on this address (e.g. localhost:6060)")
		traceRate   = flag.Float64("trace-rate", 0, "distributed-trace sampling rate in [0,1]; with -log-dir every island also writes an island-<i>.trace sidecar for offline borgview trace analysis (0 = tracing off)")
		qualEvery   = flag.Uint64("quality-every", 0, "sample each island's search quality (hypervolume, eps-progress, operator adaptation) every N accepted evaluations; with -log-dir the samples ride the event logs (render with: borgview timeline -quality), with -debug-addr the federation serves /debug/quality (0 = off)")
		logDir      = flag.String("log-dir", "", "write per-island BMEL event logs and migrant sidecar logs into this directory")
		replayDir   = flag.String("replay-dir", "", "replay a recorded federation from this directory instead of running (the logs name the run; -islands pins the island count)")
		outPath     = flag.String("out", "", "save the merged archive as JSON to this path")
		printFront  = flag.Bool("front", false, "print the merged Pareto approximation")
		verbose     = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	logger := borgmoea.NewLogger(os.Stderr, *verbose)
	fail := func(code int, msg string, args ...any) int {
		logger.Error(msg, args...)
		return code
	}

	// The federation run cannot be stopped mid-stride, so the first
	// termination signal runs the flusher hooks registered below —
	// closing streamed event logs, writing migrant and trace sidecars —
	// and exits; a completed run flushes the same hooks on the way out.
	var flusher shutdown.Flusher
	defer flusher.Flush()
	shutdown.ExitAfterFlush(&flusher, func(s os.Signal) {
		logger.Warn("signal received; flushing federation logs", "signal", s.String())
	})

	spec := master.Spec{Problem: *problemName, Objectives: *objectives, Evaluations: *evals,
		Epsilon: *epsilon, Seed: *seed, QualityEvery: *qualEvery}
	if *replayDir != "" {
		return replay(logger, *replayDir, spec, *islands, *outPath, *printFront)
	}
	problem, algCfg, err := spec.Config()
	if err != nil {
		return fail(2, err.Error())
	}
	if *islands < 1 {
		return fail(2, "-islands must be at least 1")
	}

	cfg := borgmoea.FederationConfig{
		Problem:        problem,
		Algorithm:      algCfg,
		Seed:           *seed,
		Islands:        *islands,
		Evaluations:    *evals,
		MigrationEvery: *migrate,
		Workers:        *workers,
		LeaseTimeout:   *leaseT,
		WallLimit:      *wallLimit,
		Root:           *root,
		DeltaEvery:     *deltaEvery,
		Logf:           borgmoea.LogfAdapter(logger),
	}
	if !*root {
		cfg.DeltaEvery = 0
	}
	if *delay > 0 {
		cfg.WorkerDelay = borgmoea.GammaFromMeanCV(*delay, *delayCV)
	}
	if *simTA > 0 {
		cfg.SimulateTA = borgmoea.GammaFromMeanCV(*simTA, 0.1)
	}
	if *listen != "" {
		addrs := strings.Split(*listen, ",")
		if len(addrs) != *islands {
			return fail(2, fmt.Sprintf("-listen names %d addresses for %d islands", len(addrs), *islands))
		}
		cfg.ListenAddrs = addrs
	}
	if *workers == 0 {
		cfg.OnListen = func(island int, addr string) {
			logger.Info("island listening for workers", "island", island, "addr", addr,
				"hint", fmt.Sprintf("start workers with: borgd -connect %s", addr))
		}
	}
	if *logDir != "" {
		if err := os.MkdirAll(*logDir, 0o755); err != nil {
			return fail(1, err.Error())
		}
		cfg.Logs = make([]*borgmoea.ProtocolLog, *islands)
		cfg.MigrantLogs = make([]*borgmoea.MigrantLog, *islands)
		for i := range cfg.Logs {
			cfg.Logs[i] = borgmoea.NewProtocolLog()
			cfg.Logs[i].Meta.Run = &master.RunHeader{Spec: &spec}
			cfg.MigrantLogs[i] = borgmoea.NewMigrantLog()
			if err := streamEventLog(&flusher, logger, cli.IslandPath(*logDir, i, "bmel"), cfg.Logs[i]); err != nil {
				return fail(1, "creating event log", "island", i, "err", err)
			}
			mlog, path := cfg.MigrantLogs[i], cli.IslandPath(*logDir, i, "migrants")
			flusher.Add(func() {
				if err := cli.WriteLog(path, mlog); err != nil {
					logger.Error("writing migrant log", "path", path, "err", err)
				}
			})
		}
	}
	if *traceRate > 0 {
		cfg.Tracers = make([]*borgmoea.TraceCollector, *islands)
		for i := range cfg.Tracers {
			cfg.Tracers[i] = borgmoea.NewTraceCollector(borgmoea.TraceCollectorConfig{
				RunID: *seed ^ uint64(i),
				Rate:  *traceRate,
			})
			if *logDir == "" {
				continue
			}
			// The sidecar snapshot is mutex-guarded, so the hook is safe
			// to run from the signal path while islands are still live.
			col, path := cfg.Tracers[i], cli.IslandPath(*logDir, i, "trace")
			flusher.Add(func() {
				if err := cli.WriteLog(path, col.TraceLog()); err != nil {
					logger.Error("writing trace sidecar", "path", path, "err", err)
				}
			})
		}
	}
	if *debugAddr != "" {
		cfg.Metrics = borgmoea.NewMetrics()
		cfg.Federation = borgmoea.NewScalingFederation()
	}
	var qualityRef []float64
	if *qualEvery > 0 {
		qualityRef = borgmoea.RefPointFor(problem.Name(), problem.NumObjs())
		cfg.Quality = make([]*borgmoea.QualitySampler, *islands)
		for i := range cfg.Quality {
			// Per-island gauge prefixes keep the quality series apart on
			// the shared registry (island0.quality.hypervolume, ...).
			cfg.Quality[i] = borgmoea.NewQualitySampler(borgmoea.QualitySamplerConfig{
				Every:       *qualEvery,
				Ref:         qualityRef,
				Metrics:     cfg.Metrics,
				GaugePrefix: fmt.Sprintf("island%d.quality.", i),
			})
		}
	}
	if *debugAddr != "" {
		opts := []httpd.DebugOption{
			httpd.WithHandler("/debug/scaling", httpd.FederationHandler(cfg.Federation)),
		}
		if *qualEvery > 0 {
			// The merged-front quality is computed lazily per request
			// from the live root, so the run itself pays nothing for it.
			var liveRoot atomic.Pointer[borgmoea.FederationRoot]
			cfg.OnRoot = func(r *borgmoea.FederationRoot) { liveRoot.Store(r) }
			opts = append(opts, httpd.WithHandler("/debug/quality",
				fedQualityHandler(cfg.Quality, &liveRoot, qualityRef, *seed)))
		}
		srv, err := httpd.ServeDebug(*debugAddr, cfg.Metrics, opts...)
		if err != nil {
			return fail(1, err.Error())
		}
		defer srv.Close()
		logger.Info("debug listener up", "addr", srv.Addr(),
			"scaling", fmt.Sprintf("http://%s/debug/scaling", srv.Addr()),
			"hint", fmt.Sprintf("watch with: borgview top -fed -addr %s", srv.Addr()))
	}

	start := time.Now()
	res, err := borgmoea.RunFederation(cfg)
	if err != nil {
		return fail(1, err.Error())
	}

	fmt.Printf("federation: islands=%d  P=%d  N=%d  T_P=%.2fs  migrants=%d  merged-archive=%d\n",
		*islands, res.Processors, res.TotalEvaluations, res.ElapsedTime, res.Migrants, res.MergedArchive.Size())
	fr := res.Federation.Report()
	if fr.SingleMasterPUB > 0 {
		fmt.Printf("scaling: single-master P_UB=%.1f  aggregate-speedup=%.1f  effective-processors=%.1f  ceiling-ratio=%.2f\n",
			fr.SingleMasterPUB, fr.AggregateObservedSpeedup, fr.AggregateEffectiveProcessors, fr.CeilingRatio)
	}
	if res.Root != nil {
		fmt.Printf("root: deltas=%d  live-archive=%d  completed-seen=%d\n",
			res.Root.Deltas(), res.Root.Size(), res.Root.Completed())
	}
	if *qualEvery > 0 {
		fmt.Printf("quality: merged-front hv=%.4f  spread=%.4f  points=%d\n",
			borgmoea.MeasureFront(res.MergedFront, qualityRef, 0, 0, *seed),
			borgmoea.FrontSpread(res.MergedFront), len(res.MergedFront))
		for i, q := range cfg.Quality {
			if s, ok := q.Latest(); ok {
				logger.Info("island quality", "island", i, "samples", s.Seq+1,
					"hv", fmt.Sprintf("%.4f", s.Hypervolume),
					"eps_progress", s.EpsProgress, "restarts", s.Restarts)
			}
		}
	}
	for i, el := range res.IslandElapsed {
		logger.Info("island done", "island", i, "elapsed", fmt.Sprintf("%.2fs", el),
			"evals", res.Islands[i].Evaluations(), "archive", res.Islands[i].Archive().Size())
	}
	logger.Info("wall time", "elapsed", time.Since(start).Round(time.Millisecond).String())

	if *traceRate > 0 {
		for i, col := range cfg.Tracers {
			att := col.Forest().Attribution()
			logger.Info("island traces", "island", i, "evals", att.Evals,
				"tf", share(att.TF.Share), "tc", share(att.TCSend.Share+att.TCRecv.Share),
				"wait", share(att.Wait.Share), "ta", share(att.TA.Share))
		}
	}
	flusher.Flush()
	if *logDir != "" {
		hint := fmt.Sprintf("replay with: borgfed -replay-dir %s", *logDir)
		if *qualEvery > 0 {
			hint += fmt.Sprintf("; render the quality timelines with: borgview timeline -quality %s", *logDir)
		}
		logger.Info("federation logs written", "dir", *logDir, "hint", hint)
		if *traceRate > 0 {
			logger.Info("trace sidecars written", "dir", *logDir,
				"hint", fmt.Sprintf("attribute with: borgview trace -dir %s -islands %d", *logDir, *islands))
		}
	}

	return emitFront(logger, res.MergedFront, res.MergedArchive, *outPath, *printFront)
}

// fedQualityHandler serves the federation's /debug/quality: one
// document per island (latest sample, history window, operator mix)
// plus the merged-front quality, measured lazily from the live root's
// current front on each request with the same deterministic rule the
// island samplers use.
func fedQualityHandler(quality []*borgmoea.QualitySampler, root *atomic.Pointer[borgmoea.FederationRoot], ref []float64, seed uint64) http.Handler {
	type merged struct {
		Hypervolume float64 `json:"hypervolume"`
		FrontSpread float64 `json:"front_spread"`
		Points      int     `json:"points"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		doc := struct {
			Islands []borgmoea.QualityReport `json:"islands"`
			Merged  *merged                  `json:"merged,omitempty"`
		}{Islands: make([]borgmoea.QualityReport, 0, len(quality))}
		for _, q := range quality {
			doc.Islands = append(doc.Islands, q.Report())
		}
		if r := root.Load(); r != nil {
			front := r.Front()
			doc.Merged = &merged{
				Hypervolume: borgmoea.MeasureFront(front, ref, 0, 0, seed),
				FrontSpread: borgmoea.FrontSpread(front),
				Points:      len(front),
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck
	})
}

// replay reconstructs a recorded federation from -log-dir files and
// prints the merged front it reproduces. The run comes from island 0's
// log header; -islands, when set, pins the island count.
func replay(logger *slog.Logger, dir string, flags master.Spec, islands int, outPath string, printFront bool) int {
	fail := func(code int, msg string, args ...any) int {
		logger.Error(msg, args...)
		return code
	}
	k := 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "islands" {
			k = islands
		}
	})
	paths, rep, _, err := cli.Replay(dir, k, flags, false)
	if err != nil {
		return fail(1, "replaying", "err", err)
	}
	var evals uint64
	for _, b := range rep.Islands {
		evals += b.Evaluations()
	}
	fmt.Printf("replayed federation: islands=%d  N=%d  merged-archive=%d\n",
		len(paths), evals, rep.MergedArchive.Size())
	return emitFront(logger, rep.MergedFront, rep.MergedArchive, outPath, printFront)
}

// emitFront prints/saves the merged front per the output flags.
func emitFront(logger *slog.Logger, front [][]float64, arch *borgmoea.Archive, outPath string, printFront bool) int {
	if printFront {
		cli.PrintFront(front)
	}
	if outPath != "" {
		if err := cli.WriteFile(outPath, func(w io.Writer) error {
			return borgmoea.SaveArchive(w, arch)
		}); err != nil {
			logger.Error("saving archive", "err", err)
			return 1
		}
		logger.Info("merged archive saved", "path", outPath)
	}
	return 0
}

// streamEventLog makes a streaming BMEL writer the log's Sink: the
// island's event log is on disk at event granularity and nowhere in
// memory, so a signal (or crash) costs at most the trailing partial
// record, which the replay reader tolerates. The registered flusher
// hook closes the file; the mutex covers the signal goroutine racing
// the recording island goroutine.
func streamEventLog(flusher *shutdown.Flusher, logger *slog.Logger, path string, log *borgmoea.ProtocolLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var (
		mu      sync.Mutex
		lw      *borgmoea.ProtocolLogWriter
		initErr error
		closed  bool
	)
	log.Sink = func(ev borgmoea.MasterEvent) {
		mu.Lock()
		defer mu.Unlock()
		if closed || initErr != nil {
			return
		}
		if lw == nil {
			// First event: the recording Core stamped log.Meta when it
			// was constructed, before anything could be recorded.
			if lw, initErr = borgmoea.NewProtocolLogWriter(f, log.Meta); initErr != nil {
				return
			}
		}
		lw.Record(ev)
	}
	flusher.Add(func() {
		mu.Lock()
		defer mu.Unlock()
		closed = true
		switch {
		case initErr != nil:
			logger.Error("streaming event log", "path", path, "err", initErr)
		case lw != nil && lw.Err() != nil:
			logger.Error("streaming event log", "path", path, "err", lw.Err())
		}
		if err := f.Close(); err != nil {
			logger.Error("closing event log", "path", path, "err", err)
		}
	})
	return nil
}

// share formats a critical-path share for the trace summary lines.
func share(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
