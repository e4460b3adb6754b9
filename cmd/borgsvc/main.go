// Command borgsvc runs the multi-tenant Borg job service: a long-lived
// scheduler that owns a shared borgd worker fleet and multiplexes many
// concurrent optimization runs over it. Clients submit jobs over the
// HTTP API (see borgq), each job gets its own master core and advisor,
// and stride scheduling shares the fleet fairly at per-evaluation
// granularity.
//
// Usage:
//
//	borgsvc -fleet-listen :7070 -api-addr localhost:6060
//	borgd -connect host:7070            # grow the fleet, any number
//	borgq -addr localhost:6060 submit -problem DTLZ2 -objectives 5 -evals 100000
//
// With -state-dir every job persists — its spec at submission and a
// streamed event log while running — and a restarted borgsvc replays
// each job back to its exact pre-kill state and resumes it as the
// fleet redials in. A job that ends writes its final archive once,
// <id>.archive.json, which its result serves from then on. /healthz
// stays green through a drain while /readyz flips to 503 the moment
// shutdown starts, so a load balancer stops sending submissions before
// in-flight requests finish.
//
// The -api-addr server also carries the debug routes: the scheduler's
// registry as JSON on /debug/vars, and CPU, heap and trace profiles on
// demand under /debug/pprof/, which go tool pprof reads directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"borgmoea"
	"borgmoea/internal/httpd"
	"borgmoea/internal/shutdown"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		fleetListen = flag.String("fleet-listen", ":7070", "address borgd workers dial")
		apiAddr     = flag.String("api-addr", "localhost:6060", "HTTP address for the job API and /debug endpoints")
		stateDir    = flag.String("state-dir", "", "persist jobs here and resume them on restart (empty = no persistence)")
		leaseT      = flag.Duration("lease-timeout", 30*time.Second, "per-evaluation lease timeout")
		maxActive   = flag.Int("max-active", 0, "simultaneously running jobs (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 1024, "queued jobs before submissions are rejected with 429")
		drainT      = flag.Duration("drain-timeout", 5*time.Second, "graceful HTTP drain on shutdown")
		verbose     = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	logger := borgmoea.NewLogger(os.Stderr, *verbose)
	reg := borgmoea.NewMetrics()

	sched, err := borgmoea.NewJobScheduler(borgmoea.JobServiceConfig{
		FleetListen:  *fleetListen,
		LeaseTimeout: *leaseT,
		MaxActive:    *maxActive,
		MaxQueue:     *maxQueue,
		StateDir:     *stateDir,
		Metrics:      reg,
		Logf:         borgmoea.LogfAdapter(logger),
	})
	if err != nil {
		logger.Error("starting scheduler", "err", err)
		return 1
	}
	srv, err := httpd.ServeDebug(*apiAddr, reg, httpd.JobAPI(sched)...)
	if err != nil {
		sched.Close()
		logger.Error("api listener failed", "err", err)
		return 1
	}
	logger.Info("job service up",
		"fleet", sched.FleetAddr(),
		"api", srv.Addr(),
		"jobs", fmt.Sprintf("http://%s/jobs", srv.Addr()),
		"hint", fmt.Sprintf("workers: borgd -connect %s   client: borgq -addr %s list", sched.FleetAddr(), srv.Addr()))

	// One flusher owns the drain sequence, shared by the signal path
	// and the normal exit: drain HTTP (in-flight requests finish, new
	// ones stop arriving), then close the scheduler — every running
	// job's event log closed, worker connections dropped without a Stop
	// so the fleet redials the next server.
	var flusher shutdown.Flusher
	flusher.Add(func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("draining api", "err", err)
		}
		if err := sched.Close(); err != nil {
			logger.Error("closing scheduler", "err", err)
			return
		}
		logger.Info("job service stopped")
	})
	defer flusher.Flush()

	ctx, stop := shutdown.NotifyContext(context.Background(), func(s os.Signal) {
		logger.Warn("signal received; draining", "signal", s.String())
	})
	defer stop()
	<-ctx.Done()
	return 0
}
