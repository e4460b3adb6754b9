package wire

import (
	"context"
	"errors"
	"fmt"
	"time"

	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// WorkerConfig parameterizes one worker runtime (the borgd daemon, or
// an in-process equivalent in tests and examples).
type WorkerConfig struct {
	// Addr is the master's host:port.
	Addr string
	// Resolve maps the master's announced problem name to a local
	// Problem. Nil uses problems.ByName. The returned problem's
	// dimensions are verified against the handshake in either case.
	Resolve func(name string) (problems.Problem, error)
	// Delay, when set, is an artificial per-evaluation hold sampled
	// and slept after each real evaluation — the distributed analogue
	// of the controlled T_F delays in the paper's experiment design.
	Delay stats.Distribution
	// Seed seeds the delay sampling stream; it is decorrelated across
	// workers by mixing in the master-assigned worker id.
	Seed uint64
	// Conn tunes heartbeats, idle and write timeouts.
	Conn Options
	// Backoff and MaxBackoff bound the reconnect backoff (defaults
	// 100ms and 5s). The worker redials with its assigned identity —
	// reconnect-with-hello — until the context is cancelled or the
	// master says Stop.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *WorkerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// errStopped signals a clean master-initiated shutdown.
var errStopped = errors.New("wire: master sent stop")

// RunWorker runs the worker side of the distributed master-slave
// protocol until the master sends Stop (returns nil) or ctx is
// cancelled (returns the context error). A lost connection is not
// fatal: the worker backs off and redials, re-registering under the
// worker id the master assigned it — the crash-recover path the
// fault-tolerant master already handles for virtual-time workers
// re-sending tagHello.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Addr == "" {
		return fmt.Errorf("wire: worker needs a master address")
	}
	resolve := cfg.Resolve
	if resolve == nil {
		resolve = problems.ByName
	}
	backoff := cfg.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := cfg.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}

	redials := cfg.Conn.Metrics.Counter(MetricRedials)

	// The serve loop is strictly sequential — each grant is fully
	// evaluated and answered before the next Recv — so the connection
	// can decode grants into reused scratch messages.
	connOpt := cfg.Conn
	connOpt.ReuseMessages = true

	var workerID uint64 // 0 until the master assigns one
	wait := backoff
	first := true
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !first {
			redials.Inc()
		}
		first = false
		conn, welcome, err := Dial(cfg.Addr, Hello{WorkerID: workerID}, connOpt)
		if err != nil {
			cfg.logf("wire: dial %s: %v (retrying in %v)", cfg.Addr, err, wait)
			if err := sleep(ctx, wait); err != nil {
				return err
			}
			if wait *= 2; wait > maxBackoff {
				wait = maxBackoff
			}
			continue
		}
		wait = backoff
		workerID = welcome.WorkerID

		// A MultiProblem master names the problem per grant; the worker
		// resolves lazily in serve and reports per-grant failures as
		// empty Results instead of dropping the session.
		var problem problems.Problem
		if welcome.Problem != MultiProblem {
			problem, err = resolve(welcome.Problem)
			if err == nil {
				if problem.NumVars() != int(welcome.NumVars) || problem.NumObjs() != int(welcome.NumObjs) {
					err = fmt.Errorf("wire: problem %s resolves to %dv/%do locally, master expects %dv/%do",
						welcome.Problem, problem.NumVars(), problem.NumObjs(), welcome.NumVars, welcome.NumObjs)
				}
			}
			if err != nil {
				conn.Close()
				return err // reconnecting cannot fix a problem mismatch
			}
		}

		hb := cfg.Conn.Heartbeat
		if hb == 0 && welcome.HeartbeatMillis > 0 {
			hb = time.Duration(welcome.HeartbeatMillis) * time.Millisecond
		}
		conn.StartHeartbeat(hb)
		cfg.logf("wire: worker %d connected to %s (problem %s)", workerID, cfg.Addr, welcome.Problem)

		err = serve(ctx, conn, problem, &cfg, workerID)
		conn.Close()
		switch {
		case errors.Is(err, errStopped):
			cfg.logf("wire: worker %d stopped by master", workerID)
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		}
		cfg.logf("wire: worker %d lost connection: %v (reconnecting)", workerID, err)
	}
}

// serve runs the evaluate loop on one live connection: receive an
// Evaluate, compute the objectives (and constraint violations for
// constrained problems), hold the optional artificial delay, send the
// Result. Returns errStopped on a Stop, or the transport error.
//
// A nil problem makes the session multi-problem: each grant names its
// own problem, resolved on first use and cached for the connection. A
// grant that cannot be evaluated — unknown name, dimension mismatch —
// answers with an empty Result (Objs == nil) so the master fails only
// that job's lease, not the whole session.
func serve(ctx context.Context, conn *Conn, problem problems.Problem, cfg *WorkerConfig, workerID uint64) error {
	// Unblock the reader when the context dies.
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watch:
		}
	}()

	// Mixing the worker id into the seed decorrelates delay streams
	// across workers: splitmix64 seeding maps similar seeds to
	// unrelated xoshiro states.
	delayRng := rng.New(cfg.Seed ^ (workerID * 0x9e3779b97f4a7c15))
	resolve := cfg.Resolve
	if resolve == nil {
		resolve = problems.ByName
	}
	cache := make(map[string]problems.Problem) // multi-problem resolutions; nil = known-bad

	// res holds the objective/constraint buffers across grants; Send
	// copies the frame out before returning, so reusing them on the
	// next evaluation is safe.
	var res Result

	for {
		m, err := conn.Recv()
		if err != nil {
			return err
		}
		switch req := m.(type) {
		case *Evaluate:
			p := problem
			if p == nil {
				var hit bool
				if p, hit = cache[req.Problem]; !hit {
					var rerr error
					if p, rerr = resolve(req.Problem); rerr != nil {
						cfg.logf("wire: worker %d cannot resolve problem %q: %v", workerID, req.Problem, rerr)
						p = nil
					}
					cache[req.Problem] = p
				}
			}
			if p == nil || len(req.Vars) != p.NumVars() {
				if problem != nil {
					// Single-problem sessions validated dimensions at
					// the handshake; a mismatch is a protocol error.
					return fmt.Errorf("wire: evaluate with %d vars, problem %s wants %d",
						len(req.Vars), problem.Name(), problem.NumVars())
				}
				// Multi-problem: fail this lease, keep the session.
				empty := &Result{Lease: req.Lease, SolID: req.SolID, Operator: req.Operator}
				if err := conn.Send(empty); err != nil {
					return err
				}
				continue
			}
			start := time.Now()
			objs := growF64(res.Objs, p.NumObjs())
			var constrs []float64
			if cp, constrained := p.(problems.Constrained); constrained {
				constrs = growF64(res.Constrs, cp.NumConstraints())
				cp.EvaluateWithConstraints(req.Vars, objs, constrs)
			} else {
				p.Evaluate(req.Vars, objs)
			}
			if cfg.Delay != nil {
				d := time.Duration(cfg.Delay.Sample(delayRng) * float64(time.Second))
				if err := sleep(ctx, d); err != nil {
					return err
				}
			}
			res = Result{
				Lease:     req.Lease,
				SolID:     req.SolID,
				Operator:  req.Operator,
				EvalNanos: uint64(time.Since(start).Nanoseconds()),
				Objs:      objs,
				Constrs:   constrs,
			}
			if err := conn.Send(&res); err != nil {
				return err
			}
		case Stop:
			return errStopped
		default:
			// Unexpected but harmless (e.g. a duplicate Welcome).
		}
	}
}

// growF64 returns a length-n slice, reusing s's backing array when its
// capacity suffices.
func growF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// sleep holds for d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
