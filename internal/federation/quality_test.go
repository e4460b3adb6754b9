package federation_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

func newQualitySamplers(k int, every uint64) []*obs.QualitySampler {
	qs := make([]*obs.QualitySampler, k)
	for i := range qs {
		qs[i] = obs.NewQualitySampler(obs.QualityConfig{
			Every: every,
			Ref:   metrics.RefPointFor("DTLZ2", 3),
		})
	}
	return qs
}

// sameTimeline reports whether got repeats want: the reference point,
// MaxExact, MCSamples, the operator names and every field of every
// sample, floats compared by their bits.
func sameTimeline(want, got *obs.QualityLog) bool {
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	return bits(want.Ref, got.Ref) && want.MaxExact == got.MaxExact && want.MCSamples == got.MCSamples &&
		slices.Equal(want.Operators, got.Operators) &&
		slices.EqualFunc(want.Samples, got.Samples, func(w, g obs.QualitySample) bool {
			return w.Seq == g.Seq && w.Evaluations == g.Evaluations && w.EpsProgress == g.EpsProgress &&
				w.ArchiveSize == g.ArchiveSize && w.PopulationSize == g.PopulationSize &&
				w.Restarts == g.Restarts && w.TournamentSize == g.TournamentSize &&
				bits([]float64{w.At, w.Hypervolume, w.FrontSpread}, []float64{g.At, g.Hypervolume, g.FrontSpread}) &&
				bits(w.OperatorProbs, g.OperatorProbs)
		})
}

// TestFederationQualityReplay: a federated run with per-island quality
// samplers replays every island's quality timeline bit for bit from
// the BMEL + migrant logs — sample points ride the event stream
// through migrations, so the offline reconstruction sees the same
// archives at the same points.
func TestFederationQualityReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback federation run in -short mode")
	}
	const (
		islands = 2
		perIsl  = 300
		every   = 75
	)
	problem := problems.NewDTLZ2(3)
	algCfg := core.Config{Epsilons: core.UniformEpsilons(3, 0.1)}
	logs, mlogs := newLogs(islands)
	quality := newQualitySamplers(islands, 50)

	res, err := federation.Run(federation.Config{
		Problem:        problem,
		Algorithm:      algCfg,
		Seed:           42,
		Islands:        islands,
		Evaluations:    perIsl,
		MigrationEvery: every,
		Workers:        2,
		WorkerDelay:    stats.NewConstant(0.002),
		Conn:           fastConn,
		Logs:           logs,
		MigrantLogs:    mlogs,
		Quality:        quality,
	})
	if err != nil {
		t.Fatal(err)
	}
	live := make([]*obs.QualityLog, islands)
	for i, q := range quality {
		if len(q.Log().Samples) == 0 {
			t.Fatalf("island %d produced no quality samples", i)
		}
		last, _ := q.Latest()
		if last.Hypervolume <= 0 {
			t.Errorf("island %d final hypervolume %v, want > 0", i, last.Hypervolume)
		}
		live[i] = q.Log()
	}

	// Serialization round trip first: the on-disk logs are what must
	// replay.
	for i := range logs {
		var lb, mb bytes.Buffer
		if _, err := logs[i].WriteTo(&lb); err != nil {
			t.Fatal(err)
		}
		if logs[i], err = master.ReadLog(&lb); err != nil {
			t.Fatal(err)
		}
		if _, err := mlogs[i].WriteTo(&mb); err != nil {
			t.Fatal(err)
		}
		if mlogs[i], err = federation.ReadMigrantLog(&mb); err != nil {
			t.Fatal(err)
		}
	}
	replayQ := newQualitySamplers(islands, 50)
	rep, err := federation.ReplayQuality(problem, algCfg, 42, logs, mlogs, replayQ)
	if err != nil {
		t.Fatal(err)
	}
	for i := range replayQ {
		if !sameTimeline(live[i], replayQ[i].Log()) {
			t.Errorf("island %d: replayed quality timeline differs from the live run's", i)
		}
	}
	// Archive determinism is unaffected by riding EvQuality events.
	for i := range rep.Islands {
		if !bytes.Equal(archiveBytes(t, rep.Islands[i].Archive()), archiveBytes(t, res.Islands[i].Archive())) {
			t.Errorf("island %d: replayed archive differs from the live run's", i)
		}
	}

	// Replay without samplers tolerates the recorded EvQuality events
	// (they are no-ops) and still reconstructs the archives.
	rep2, err := federation.ReplayQuality(problem, algCfg, 42, logs, mlogs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archiveBytes(t, rep2.MergedArchive), archiveBytes(t, res.MergedArchive)) {
		t.Error("quality-blind replay no longer reproduces the merged archive")
	}
}

// TestFederationQualityValidation: a Quality slice of the wrong length
// is rejected up front.
func TestFederationQualityValidation(t *testing.T) {
	_, err := federation.Run(federation.Config{
		Problem:     problems.NewDTLZ2(2),
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(2, 0.1)},
		Islands:     2,
		Evaluations: 10,
		Quality:     newQualitySamplers(1, 10),
	})
	if err == nil {
		t.Fatal("Run accepted a short Quality slice")
	}
}
