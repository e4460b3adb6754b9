// Command borgd is the distributed Borg worker daemon. It dials a
// listening master (borg -transport tcp -listen ...), resolves the
// problem the master announces in its handshake, and evaluates
// solutions until the master says stop. A lost connection is retried
// with backoff under the same worker identity, so the master's lease
// protocol resubmits any evaluation that was in flight.
//
// Usage:
//
//	borgd -connect master:7070
//	borgd -connect master:7070 -delay 0.05 -delay-cv 0.5   # synthetic T_F
//	borgd -connect master:7070 -debug-addr localhost:6061  # live metrics + pprof
//
// -debug-addr serves the worker's wire metrics as JSON on /debug/vars
// and CPU, heap and trace profiles on demand under /debug/pprof/, which
// go tool pprof reads directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"borgmoea"
	"borgmoea/internal/httpd"
	"borgmoea/internal/shutdown"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		connect   = flag.String("connect", "", "master address host:port (required)")
		seed      = flag.Uint64("seed", 1, "random seed for the synthetic delay stream")
		delay     = flag.Float64("delay", 0, "mean synthetic per-evaluation delay in seconds (0 = none)")
		delayCV   = flag.Float64("delay-cv", 0.1, "synthetic delay coefficient of variation (with -delay)")
		hb        = flag.Duration("heartbeat", 0, "heartbeat interval (0 = follow the master's handshake)")
		idle      = flag.Duration("idle", 0, "idle timeout before redialing (0 = 4x heartbeat)")
		quiet     = flag.Bool("quiet", false, "suppress connection lifecycle messages")
		verbose   = flag.Bool("v", false, "verbose (debug-level) logging")
		debugAddr = flag.String("debug-addr", "", "serve live /debug/vars and /debug/pprof on this address (e.g. localhost:6061)")
	)
	flag.Parse()
	logger := borgmoea.NewLogger(os.Stderr, *verbose)
	if *connect == "" {
		logger.Error("-connect host:port is required")
		return 2
	}

	cfg := borgmoea.WorkerConfig{
		Addr: *connect,
		Seed: *seed,
		Conn: borgmoea.WireOptions{Heartbeat: *hb, IdleTimeout: *idle},
	}
	if *delay > 0 {
		cfg.Delay = borgmoea.GammaFromMeanCV(*delay, *delayCV)
	}
	if !*quiet {
		cfg.Logf = borgmoea.LogfAdapter(logger)
	}
	if *debugAddr != "" {
		// The wire layer shares this registry: frames, bytes, redials
		// and heartbeat RTT show up live on /debug/vars.
		cfg.Conn.Metrics = borgmoea.NewMetrics()
	}
	if *debugAddr != "" {
		srv, err := httpd.ServeDebug(*debugAddr, cfg.Conn.Metrics)
		if err != nil {
			logger.Error("debug listener failed", "err", err)
			return 1
		}
		defer srv.Close()
		logger.Info("debug listener up", "addr", srv.Addr(),
			"vars", fmt.Sprintf("http://%s/debug/vars", srv.Addr()))
	}
	// SIGINT/SIGTERM cancel the context; RunWorker then abandons its
	// current evaluation and the master's lease recovers it.
	ctx, stop := shutdown.NotifyContext(context.Background(), func(s os.Signal) {
		logger.Warn("signal received; shutting down", "signal", s.String())
	})
	defer stop()

	if err := borgmoea.RunWorker(ctx, cfg); err != nil && err != context.Canceled {
		logger.Error("worker failed", "err", err)
		return 1
	}
	return 0
}
