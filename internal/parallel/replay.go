package parallel

import (
	"fmt"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
)

// ReplayAsync re-executes a recorded asynchronous run off-line from
// its protocol event log (Config.Protocol, or a log deserialized with
// master.ReadLog). cfg must carry the original run's Problem,
// Algorithm configuration and Seed; the timing fields are ignored —
// no clock runs during a replay. The returned Result reproduces the
// original's search trajectory (archive, operator state) and protocol
// accounting exactly; ElapsedTime is the recorded T_P.
//
// Replay works for any transport's recording — DES, realtime, or a
// distributed TCP run whose nondeterminism (scheduling, packet timing,
// worker crashes) is fully captured in the event order.
func ReplayAsync(cfg Config, log *master.Log) (*Result, error) {
	if log == nil || len(log.Events) == 0 {
		return nil, fmt.Errorf("parallel: cannot replay an empty event log")
	}
	if cfg.Problem == nil {
		return nil, fmt.Errorf("parallel: Problem is required")
	}
	if cfg.Evaluations != 0 && cfg.Evaluations != log.Meta.Budget {
		return nil, fmt.Errorf("parallel: config budget %d does not match the log's %d", cfg.Evaluations, log.Meta.Budget)
	}
	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b, err := core.New(cfg.Problem, algCfg)
	if err != nil {
		return nil, err
	}
	rc := master.ReplayConfig{
		// No holds, no meters, no clocks: the algorithm runs at full speed
		// and the protocol decisions come from the recorded stream.
		Alg:      b,
		Evaluate: func(item *master.Item) { core.EvaluateSolution(cfg.Problem, item.S) },
		Meters:   master.NewMeters(cfg.Metrics),
	}
	if q := cfg.Quality; q != nil {
		// Re-trigger the recorded quality samples against the replayed
		// algorithm: the regenerated timeline (q.Log()) is
		// byte-identical to the live run's.
		q.Attach(b)
		rc.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
	c, err := master.Replay(log, rc)
	if err != nil {
		return nil, err
	}
	st := c.Stats()
	return &Result{
		ElapsedTime:      log.Elapsed,
		Evaluations:      st.Completed,
		Processors:       c.Peak() + 1,
		Final:            b,
		Completed:        st.Completed >= log.Meta.Budget,
		Resubmissions:    st.Resubmissions,
		LostEvaluations:  st.Lost,
		DuplicateResults: st.Duplicates,
	}, nil
}
