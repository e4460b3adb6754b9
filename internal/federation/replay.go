package federation

import (
	"fmt"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
)

// ReplayResult is the offline reconstruction of a federated run.
type ReplayResult struct {
	// Islands holds each island's replayed Borg instance; its archive
	// and population match the live run's exactly.
	Islands []*core.Borg
	// MergedFront and MergedArchive are the recomputed federated
	// front, identical to the live Result's.
	MergedFront   [][]float64
	MergedArchive *core.Archive
}

// Replay reconstructs a federated run offline from its per-island BMEL
// event logs and migrant sidecar logs: each island's log replays
// through a fresh Core with the island's algorithm seed, and every
// recorded EvMigrant resolves against the *source* island's sidecar to
// re-inject the identical solution at the identical point in the
// accept stream. With a deterministic problem the replay reproduces
// every island archive — and therefore the merged front — byte for
// byte.
func Replay(problem problems.Problem, algCfg core.Config, seed uint64, logs []*master.Log, mlogs []*MigrantLog) (*ReplayResult, error) {
	return ReplayQuality(problem, algCfg, seed, logs, mlogs, nil)
}

// ReplayQuality is Replay with per-island quality samplers: island
// isl's recorded EvQuality points re-trigger quality[isl].Sample
// against the replayed algorithm, regenerating the live run's QLOG
// timeline byte for byte (construct each sampler with the live run's
// Ref/MaxExact/MCSamples). quality may be nil, shorter than logs, or
// hold nil entries — recorded EvQuality events without a sampler are
// no-ops and do not perturb the archive reconstruction.
func ReplayQuality(problem problems.Problem, algCfg core.Config, seed uint64, logs []*master.Log, mlogs []*MigrantLog, quality []*obs.QualitySampler) (*ReplayResult, error) {
	if problem == nil {
		return nil, fmt.Errorf("federation: replay needs the problem")
	}
	if len(logs) == 0 {
		return nil, fmt.Errorf("federation: replay needs at least one event log")
	}
	if mlogs != nil && len(mlogs) != len(logs) {
		return nil, fmt.Errorf("federation: %d migrant logs for %d event logs", len(mlogs), len(logs))
	}
	res := &ReplayResult{Islands: make([]*core.Borg, len(logs))}
	for isl, log := range logs {
		cfg := algCfg
		cfg.Seed = IslandAlgSeed(seed, isl)
		b, err := core.New(problem, cfg)
		if err != nil {
			return nil, err
		}
		res.Islands[isl] = b
		var injectErr error
		rc := master.ReplayConfig{
			// The recorded run's T_A holds shaped only the event order,
			// which the log already pins: the algorithm re-runs bare.
			Alg:      b,
			Evaluate: func(item *master.Item) { core.EvaluateSolution(problem, item.S) },
			OnMigrant: func(source int, epoch uint64) {
				if injectErr != nil {
					return
				}
				if source < 0 || source >= len(mlogs) {
					injectErr = fmt.Errorf("federation: island %d log names source island %d of %d", isl, source, len(mlogs))
					return
				}
				s, ok := mlogs[source].Solution(epoch)
				if !ok {
					injectErr = fmt.Errorf("federation: island %d needs epoch %d from island %d, not in its migrant log", isl, epoch, source)
					return
				}
				b.InjectEvaluated(s)
			},
		}
		if isl < len(quality) && quality[isl] != nil {
			q := quality[isl]
			q.Attach(b)
			rc.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
		}
		if _, err := master.Replay(log, rc); err != nil {
			return nil, fmt.Errorf("federation: island %d: %w", isl, err)
		}
		if injectErr != nil {
			return nil, injectErr
		}
	}
	res.MergedArchive = MergeArchives(algCfg.Epsilons, res.Islands)
	res.MergedFront = res.MergedArchive.Objectives()
	return res, nil
}
