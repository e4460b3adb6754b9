// Benchmarks regenerating every table and figure of the paper's
// evaluation section, at reduced scale so `go test -bench=.` finishes
// in minutes. The full-scale reproductions live behind the cmd/
// tools (borgexp table2 -paper, borgexp figures); see EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
package borgmoea_test

import (
	"testing"

	"borgmoea"
)

// BenchmarkTable2 regenerates a reduced Table II: both problems, one
// unsaturated and one saturated processor count per delay, real Borg
// search on the virtual cluster plus both models.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := borgmoea.RunTable2(borgmoea.Table2Config{
			TFMeans:       []float64{0.001, 0.01},
			Processors:    []int{16, 128},
			Evaluations:   10000,
			Replicates:    1,
			SimReplicates: 1,
			TAOverride:    borgmoea.ConstantDist(0.000029),
			Seed:          uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 8 {
			b.Fatalf("expected 8 cells, got %d", len(cells))
		}
	}
}

// BenchmarkTable2MeasuredTA is the ablation for the instrumentation
// design choice: measured (real CPU) master time instead of a sampled
// distribution, as the paper's methodology prescribes.
func BenchmarkTable2MeasuredTA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := borgmoea.RunTable2(borgmoea.Table2Config{
			Problems:      nil, // default both problems
			TFMeans:       []float64{0.01},
			Processors:    []int{16},
			Evaluations:   5000,
			Replicates:    1,
			SimReplicates: 1,
			Seed:          uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3DTLZ2 regenerates one reduced panel of Figure 3:
// hypervolume-threshold speedup on DTLZ2.
func BenchmarkFigure3DTLZ2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := borgmoea.RunSpeedup(borgmoea.SpeedupConfig{
			Problem:         borgmoea.NewDTLZ2(5),
			TFMean:          0.01,
			Processors:      []int{16, 64, 256},
			Evaluations:     10000,
			Replicates:      1,
			CheckpointEvery: 500,
			HVSamples:       5000,
			TAOverride:      borgmoea.ConstantDist(0.000029),
			Seed:            uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 3 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFigure4UF11 regenerates one reduced panel of Figure 4:
// hypervolume-threshold speedup on the non-separable UF11.
func BenchmarkFigure4UF11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := borgmoea.RunSpeedup(borgmoea.SpeedupConfig{
			Problem:         borgmoea.NewUF11(),
			TFMean:          0.01,
			Processors:      []int{16, 64, 256},
			Evaluations:     10000,
			Replicates:      1,
			CheckpointEvery: 500,
			HVSamples:       5000,
			TAOverride:      borgmoea.ConstantDist(0.000055),
			Seed:            uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 3 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFigure5Surface regenerates a reduced Figure 5: the
// synchronous (analytical) vs asynchronous (simulation model)
// efficiency surfaces over a log-log TF × P grid.
func BenchmarkFigure5Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := borgmoea.RunSurface(borgmoea.SurfaceConfig{
			TFValues: []float64{0.0001, 0.001, 0.01, 0.1, 1},
			PValues:  []int{2, 8, 32, 128, 512, 2048},
			Seed:     uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Async.Eff) != 5 {
			b.Fatal("surface incomplete")
		}
	}
}

// BenchmarkFigure1And2Timelines regenerates the schematic timeline
// data of Figures 1–2 (trace-instrumented sync and async runs).
func BenchmarkFigure1And2Timelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := borgmoea.NewTraceRecorder(0)
		cfg := borgmoea.ParallelConfig{
			Problem:     borgmoea.NewDTLZ2(5),
			Algorithm:   borgmoea.Config{Epsilons: borgmoea.UniformEpsilons(5, 0.1)},
			Processors:  4,
			Evaluations: 12,
			TF:          borgmoea.GammaFromMeanCV(0.01, 0.3),
			TA:          borgmoea.ConstantDist(0.0025),
			TC:          borgmoea.ConstantDist(0.00125),
			Seed:        uint64(i),
			Events:      rec,
		}
		if _, err := borgmoea.RunSync(cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := borgmoea.RunAsync(cfg); err != nil {
			b.Fatal(err)
		}
		if rec.Len() == 0 {
			b.Fatal("no trace events")
		}
	}
}

// BenchmarkEquationSpotChecks exercises the closed-form model (Eqs.
// 1–4, 6) across the paper's whole Table II parameter range — cheap,
// but keeps the equations on the benchmark scoreboard next to the
// experiments they predict.
func BenchmarkEquationSpotChecks(b *testing.B) {
	times := borgmoea.Times{TF: 0.01, TA: 0.000029, TC: 0.000006}
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, p := range []int{16, 32, 64, 128, 256, 512, 1024} {
			sink += borgmoea.AsyncTime(100000, p, times)
			sink += borgmoea.SyncTime(100000, p, times)
			sink += borgmoea.AsyncEfficiency(p, times)
		}
		sink += borgmoea.ProcessorUpperBound(times)
		sink += borgmoea.ProcessorLowerBound(times)
	}
	_ = sink
}

// BenchmarkAblationContentionModel quantifies the design choice the
// paper's Section IV.B is about: the analytical model (no contention)
// versus the simulation model (FIFO queueing at the master) in the
// saturated regime. The benchmark reports how much simulated work the
// contention model costs relative to evaluating a closed form.
func BenchmarkAblationContentionModel(b *testing.B) {
	cfg := borgmoea.SimConfig{
		Processors:  1024,
		Evaluations: 50000,
		TF:          borgmoea.GammaFromMeanCV(0.001, 0.1),
		TA:          borgmoea.ConstantDist(0.000029),
		TC:          borgmoea.ConstantDist(0.000006),
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := borgmoea.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStragglers measures the straggler experiment (the
// paper's §VI-B variability claim): sync vs async under 25% workers
// running 4× slower.
func BenchmarkAblationStragglers(b *testing.B) {
	mk := func(seed uint64) borgmoea.ParallelConfig {
		return borgmoea.ParallelConfig{
			Problem:           borgmoea.NewDTLZ2(5),
			Algorithm:         borgmoea.Config{Epsilons: borgmoea.UniformEpsilons(5, 0.1)},
			Processors:        16,
			Evaluations:       4000,
			TF:                borgmoea.ConstantDist(0.005),
			TA:                borgmoea.ConstantDist(0.000029),
			Seed:              seed,
			StragglerFraction: 0.25,
			StragglerFactor:   4,
		}
	}
	for i := 0; i < b.N; i++ {
		async, err := borgmoea.RunAsync(mk(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		syn, err := borgmoea.RunSync(mk(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if syn.ElapsedTime <= async.ElapsedTime {
			b.Fatal("straggler asymmetry vanished")
		}
	}
}
