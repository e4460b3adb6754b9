package experiment

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"borgmoea/internal/metrics"
	"borgmoea/internal/model"
	"borgmoea/internal/problems"
)

// smallTable2Config returns a fast, deterministic Table II setup.
func smallTable2Config() Table2Config {
	return Table2Config{
		Problems:      []problems.Problem{problems.NewDTLZ2(5)},
		TFMeans:       []float64{0.01},
		Processors:    []int{8, 16},
		Evaluations:   4000,
		Replicates:    2,
		SimReplicates: 2,
		Seed:          1,
	}
}

func TestRunTable2SmallShape(t *testing.T) {
	cells, err := RunTable2(smallTable2Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Time <= 0 {
			t.Fatalf("cell %+v has no elapsed time", c)
		}
		if c.Efficiency <= 0 || c.Efficiency > 1.05 {
			t.Fatalf("efficiency %v out of range", c.Efficiency)
		}
		if c.AnalyticalTime <= 0 || c.SimulationTime <= 0 {
			t.Fatalf("model predictions missing: %+v", c)
		}
		// Unsaturated regime (P_UB ≈ 670): both models should be
		// close to experiment.
		if c.AnalyticalError > 0.1 || c.SimulationError > 0.1 {
			t.Fatalf("model errors too large in unsaturated regime: %+v", c)
		}
		if c.TA <= 0 || c.TF <= 0 || c.TC <= 0 {
			t.Fatalf("observed means missing: %+v", c)
		}
	}
}

// TestTable2SaturatedRegimeErrorOrdering reproduces the paper's key
// Table II finding: once the master saturates, the analytical model's
// error explodes while the simulation model stays accurate.
func TestTable2SaturatedRegimeErrorOrdering(t *testing.T) {
	cfg := smallTable2Config()
	cfg.TFMeans = []float64{0.0004} // P_UB ≈ 26 at the counted T_A of ≈ 3.6 µs
	cfg.Processors = []int{64}
	cfg.Evaluations = 8000
	cells, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.AnalyticalError < 0.3 {
		t.Fatalf("analytical error %.0f%% too small for saturated master", 100*c.AnalyticalError)
	}
	if c.SimulationError > 0.15 {
		t.Fatalf("simulation error %.0f%% too large — contention model broken", 100*c.SimulationError)
	}
	if c.SimulationError >= c.AnalyticalError {
		t.Fatal("simulation model should beat analytical model at saturation")
	}
}

// TestTable2CountedTA: with no T_A distribution a cell charges the
// core's counted work, so the table is a function of its seed: two runs
// give the same cells, the observed T_A and its fitted family included.
func TestTable2CountedTA(t *testing.T) {
	cfg := smallTable2Config()
	cfg.Processors = []int{8}
	cfg.Evaluations = 2000
	cfg.Replicates = 1
	cfg.SimReplicates = 1
	cells, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].TA <= 0 {
		t.Fatal("counted TA not recorded")
	}
	if cells[0].FittedTA == "" {
		t.Fatal("no TA distribution fitted")
	}
	again, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Errorf("one seed, two tables:\n %+v\n %+v", cells, again)
	}
}

// TestRunSpeedupReproducible: one Figure 3 cell run twice gives the same
// virtual times, thresholds and speedups, bit for bit.
func TestRunSpeedupReproducible(t *testing.T) {
	cfg := smallSpeedupConfig()
	cfg.Processors = []int{16}
	run := func() string {
		res, err := RunSpeedup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", *res) // NaN-safe, unlike DeepEqual
	}
	if a, b := run(), run(); a != b {
		t.Errorf("one seed, two panels:\n %s\n %s", a, b)
	}
}

func TestWriteTable2Renders(t *testing.T) {
	cells := []Table2Cell{{
		Problem: "DTLZ2_5", P: 16, TA: 0.000023, TC: 0.000006, TF: 0.01,
		Time: 67.5, Efficiency: 0.93,
		AnalyticalTime: 67.1, AnalyticalError: 0.01,
		SimulationTime: 67.1, SimulationError: 0.01,
	}}
	var sb strings.Builder
	if err := WriteTable2(&sb, cells); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"DTLZ2_5", "67.5", "0.93", "1%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := WriteTable2CSV(&sb, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DTLZ2_5,16,") {
		t.Errorf("CSV output malformed:\n%s", sb.String())
	}
}

func smallSpeedupConfig() SpeedupConfig {
	return SpeedupConfig{
		Problem:         problems.NewDTLZ2(5),
		TFMean:          0.01,
		Processors:      []int{8, 16},
		Evaluations:     4000,
		Replicates:      1,
		CheckpointEvery: 200,
		HVSamples:       4000,
		Seed:            2,
	}
}

func TestRunSpeedupShape(t *testing.T) {
	res, err := RunSpeedup(smallSpeedupConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(res.Series))
	}
	if res.AttainableHV <= 0 {
		t.Fatal("attainable hypervolume not positive")
	}
	if len(res.Thresholds) != 10 {
		t.Fatalf("got %d thresholds, want 10 defaults", len(res.Thresholds))
	}
	// Every series must reach the top threshold by construction of
	// the attainable HV.
	for _, s := range res.Series {
		last := s.Speedup[len(s.Speedup)-1]
		if math.IsNaN(last) || last <= 0 {
			t.Fatalf("P=%d speedup undefined at h=1.0: %v", s.P, s.Speedup)
		}
	}
	// In the efficient regime speedup grows with P.
	s8 := res.Series[0].Speedup[len(res.Series[0].Speedup)-1]
	s16 := res.Series[1].Speedup[len(res.Series[1].Speedup)-1]
	if s16 <= s8 {
		t.Fatalf("speedup did not grow with P in efficient regime: P=8 %.1f vs P=16 %.1f", s8, s16)
	}
}

// TestRunSpeedupPinned: the toy panel's result bit for bit, on the
// counted T_A (core.Work): a function of the seed, so a change that
// only makes the code faster may move no threshold or series, and one
// that changes the search or the work it counts must re-pin here.
func TestRunSpeedupPinned(t *testing.T) {
	bits := func(vs ...uint64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64frombits(v)
		}
		return out
	}
	fractions := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	want := map[uint64]*SpeedupResult{
		2: {
			Problem: "DTLZ2_5", TFMean: 0.01, ThresholdFractions: fractions,
			AttainableHV: math.Float64frombits(0x3ff0c811508a5c11),
			Thresholds: bits(0x3fbad9b54daa2ce8, 0x3fcad9b54daa2ce8, 0x3fd42347fa3fa1ae, 0x3fdad9b54daa2ce8, 0x3fe0c811508a5c11,
				0x3fe42347fa3fa1ae, 0x3fe77e7ea3f4e74b, 0x3fead9b54daa2ce8, 0x3fee34ebf75f7285, 0x3ff0c811508a5c11),
			SerialTimeToThreshold: bits(0x4000159f9e178f08, 0x4000159f9e178f08, 0x40100b3f154cc1f2, 0x40180c17361c2d9d, 0x40180c17361c2d9d,
				0x40240672312a5865, 0x40240672312a5865, 0x4030038a2a104bdf, 0x403603be3c70e98c, 0x403c04631e982485),
			Series: []SpeedupSeries{
				{P: 8, Speedup: bits(0x401be2c36224a383, 0x401be2c36224a383, 0x401c3b411697987a, 0x401520cd3a9ace31, 0x401520cd3a9ace31,
					0x401c1d3b01b6d8df, 0x4014108a98ca81eb, 0x40167267c3f6a576, 0x4019b2c21bcab0fe, 0x4015ccc61ade5cca)},
				{P: 16, Speedup: bits(0x402cc774cac1afaa, 0x401d9e481ca4b898, 0x4023d665ce727ae9, 0x402dbbb005b172f7, 0x4021e0d84d9118dc,
					0x4028d309b0ab2f3a, 0x402547df42ab32b9, 0x402a8894a2d81d7c, 0x402943da237247d5, 0x40289fc03cde213e)},
			},
		},
		3: {
			Problem: "DTLZ2_5", TFMean: 0.01, ThresholdFractions: fractions,
			AttainableHV: math.Float64frombits(0x3ff03a3d5bd614a1),
			Thresholds: bits(0x3fb9f6c892f02102, 0x3fc9f6c892f02102, 0x3fd379166e3418c1, 0x3fd9f6c892f02102, 0x3fe03a3d5bd614a1,
				0x3fe379166e3418c1, 0x3fe6b7ef80921ce1, 0x3fe9f6c892f02102, 0x3fed35a1a54e2522, 0x3ff03a3d5bd614a1),
			SerialTimeToThreshold: bits(0x40001580017291de, 0x40100b20113823c2, 0x40200610e7f5ae54, 0x40200610e7f5ae54, 0x402406a217cbdc5e,
				0x402806ae7e0bac58, 0x403003af6fe79403, 0x4038043ba1b266f8, 0x403c04d2ece2a602, 0x404102970ea47b7c),
			Series: []SpeedupSeries{
				{P: 8, Speedup: bits(0x401bbe328d4f0f8c, 0x402bac4d5fd70832, 0x402bb720864ef286, 0x40228ee99aee93a9, 0x40217dc1a915a572,
					0x4020c50378ce1aee, 0x402002c7de61d1c9, 0x402500eee9161cea, 0x4021d26571ccb58c, 0x401fbc8b8d61c38a)},
				{P: 16, Speedup: bits(0x402d06251460d700, 0x402d849c6f4cf0e9, 0x4033cc502646ecf8, 0x402dc35ac6ad25b6, 0x402dd9aae697530b,
					0x402ddfd39240a43f, 0x402deae0b561630e, 0x4031eac1e7b98c87, 0x40301caa554b416d, 0x402debcfb1346c50)},
			},
		},
	}
	for seed, w := range want {
		cfg := smallSpeedupConfig()
		cfg.Seed = seed
		got, err := RunSpeedup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("seed %d: result moved\n got  %+v\n want %+v", seed, got, w)
		}
	}
}

func TestSpeedupValidation(t *testing.T) {
	cfg := smallSpeedupConfig()
	cfg.Problem = nil
	if _, err := RunSpeedup(cfg); err == nil {
		t.Error("missing problem accepted")
	}
	cfg = smallSpeedupConfig()
	cfg.TFMean = 0
	if _, err := RunSpeedup(cfg); err == nil {
		t.Error("zero TF accepted")
	}
}

func TestWriteSpeedupRenders(t *testing.T) {
	res, err := RunSpeedup(smallSpeedupConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSpeedup(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "P=16") {
		t.Errorf("speedup table missing series header:\n%s", sb.String())
	}
	sb.Reset()
	if err := WriteSpeedupCSV(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DTLZ2_5,0.01,16,") {
		t.Errorf("speedup CSV malformed:\n%s", sb.String())
	}
}

// TestSerialSamplesWhereMasterDoes: the serial baseline samples at the
// evaluation counts the virtual master does — the first accept, then
// every CheckpointEvery, never the final accept — so sample i of every
// run of a panel shares its evaluation count and its Monte Carlo seed.
// T_F = 1 s dwarfs the counted T_A, so a sample's time names its count;
// N = 1 001 puts the final accept on the cadence.
func TestSerialSamplesWhereMasterDoes(t *testing.T) {
	cfg := SpeedupConfig{Problem: problems.NewDTLZ2(5), TFMean: 1, Evaluations: 1001, CheckpointEvery: 100, HVSamples: 1000, Seed: 2}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	ref := metrics.RefPoint(5, cfg.RefPointScale)
	serial := runSerialTrajectory(&cfg, ref, cfg.Seed)
	par, err := runParallelTrajectory(&cfg, ref, 8, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.times) != 10 || len(par.times) != len(serial.times) {
		t.Fatalf("serial took %d samples, parallel %d; want 10 each", len(serial.times), len(par.times))
	}
	for i, at := range serial.times {
		if n := uint64(at); n != uint64(1+100*i) {
			t.Fatalf("serial sample %d at evaluation %d, want %d", i, n, 1+100*i)
		}
	}
}

func TestTrajectoryThreshold(t *testing.T) {
	tr := trajectory{
		times: []float64{1, 2, 3},
		hv:    []float64{0.2, 0.5, 0.9},
	}
	if got := tr.timeToThreshold(0.5); got != 2 {
		t.Errorf("timeToThreshold(0.5) = %v, want 2", got)
	}
	if got := tr.timeToThreshold(0.95); !math.IsNaN(got) {
		t.Errorf("unreachable threshold returned %v, want NaN", got)
	}
	if tr.finalHV() != 0.9 {
		t.Errorf("finalHV = %v", tr.finalHV())
	}
	if (trajectory{}).finalHV() != 0 {
		t.Error("empty trajectory finalHV != 0")
	}
}

func TestRunSurfaceSmall(t *testing.T) {
	cfg := SurfaceConfig{
		TFValues: []float64{0.0001, 0.01, 1},
		PValues:  []int{2, 16, 4096},
		Seed:     3,
	}
	res, err := RunSurface(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sync.Eff) != 3 || len(res.Async.Eff) != 3 {
		t.Fatalf("surface shape wrong")
	}
	for i := range res.Sync.Eff {
		for j := range res.Sync.Eff[i] {
			for _, e := range []float64{res.Sync.Eff[i][j], res.Async.Eff[i][j]} {
				if e < 0 || e > 1.1 || math.IsNaN(e) {
					t.Fatalf("efficiency out of range at (%d,%d): %v", i, j, e)
				}
			}
		}
	}
	// Figure 5 qualitative checks: with large TF (row 2) and large P,
	// the synchronous barrier's P·(TC+TA) term has degraded sync
	// while async stays efficient — the paper's headline claim that
	// async scales to larger processor counts at the same TF.
	if res.Async.Eff[2][2] < 0.85 {
		t.Errorf("async efficiency at TF=1s,P=4096 = %v, want > 0.85", res.Async.Eff[2][2])
	}
	if res.Async.Eff[2][2] <= res.Sync.Eff[2][2] {
		t.Errorf("async (%v) should beat sync (%v) at TF=1s,P=4096",
			res.Async.Eff[2][2], res.Sync.Eff[2][2])
	}
	// With tiny TF everything is inefficient at scale.
	if res.Async.Eff[0][2] > 0.2 {
		t.Errorf("async efficiency at TF=0.1ms,P=4096 = %v, want tiny", res.Async.Eff[0][2])
	}
}

func TestWriteSurfaceRenders(t *testing.T) {
	res, err := RunSurface(SurfaceConfig{
		TFValues:            []float64{0.001, 0.1},
		PValues:             []int{2, 8},
		EvaluationsPerPoint: 500,
		Seed:                4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSurface(&sb, "async", res.Async); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "async") {
		t.Error("surface render missing title")
	}
	sb.Reset()
	if err := WriteSurfaceCSV(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sync,0.001,2,") || !strings.Contains(out, "async,0.1,8,") {
		t.Errorf("surface CSV malformed:\n%s", out)
	}
}

func TestCollectTimings(t *testing.T) {
	rep, err := CollectTimings(problems.NewDTLZ2(5), 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != 2000 || len(rep.Counted) != 2000 {
		t.Fatalf("%d samples, %d counted, want one of each per bracket", len(rep.Samples), len(rep.Counted))
	}
	if rep.Summary.Mean <= 0 {
		t.Fatal("non-positive mean TA")
	}
	for _, c := range rep.Counted {
		if c <= 0 {
			t.Fatalf("bracket counted at %v", c)
		}
	}
	if len(rep.Fits) == 0 {
		t.Fatal("no distributions fitted")
	}
	if len(rep.Work.Coef) != len(workColumns) || len(rep.Sizes.Coef) != 3 || len(rep.DropBlockR2) != len(workColumns) {
		t.Fatalf("least-squares fits malformed: %+v %+v %v", rep.Work, rep.Sizes, rep.DropBlockR2)
	}
	var sb strings.Builder
	if err := WriteTimingReport(&sb, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T_A on DTLZ2_5", "counted T_A", "committed", "without swept_vars"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("timing report lacks %q:\n%s", want, sb.String())
		}
	}
}

// TestUF11TAHigherThanDTLZ2 reproduces the paper's Table II pattern
// that UF11's larger per-evaluation algorithm cost (driven by its
// 30-variable solutions and harder archive dynamics) exceeds DTLZ2's.
// The counted T_A makes it a deterministic check.
func TestUF11TAHigherThanDTLZ2(t *testing.T) {
	cfg := smallTable2Config()
	cfg.Problems = []problems.Problem{problems.NewDTLZ2(5), problems.NewUF11()}
	cfg.Processors = []int{16}
	cfg.Replicates = 1
	cfg.SimReplicates = 1
	cells, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d, u := cells[0], cells[1]; u.TA <= d.TA {
		t.Errorf("counted mean T_A: %s %.3g s, not above %s %.3g s", u.Problem, u.TA, d.Problem, d.TA)
	}
}

func TestPlanHierarchy(t *testing.T) {
	// TF=0.001 saturates a single master near P_UB≈24; a 1024-core
	// machine must be split.
	times := model.Times{TF: 0.001, TA: 0.000029, TC: 0.000006}
	plan, err := PlanHierarchy(1024, times, 0.1, 10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IslandSize >= 1024 {
		t.Fatalf("planner kept the monolithic layout despite saturation: %+v", plan)
	}
	if plan.Islands*plan.IslandSize > 1024 {
		t.Fatalf("plan oversubscribes the machine: %+v", plan)
	}
	if plan.IslandEfficiency <= plan.SingleEfficiency {
		t.Fatalf("plan does not improve efficiency: %+v", plan)
	}
	if plan.String() == "" {
		t.Error("empty plan description")
	}
}

func TestPlanHierarchyLargeTFKeepsMonolith(t *testing.T) {
	// TF=1s: a single master handles thousands of workers; the best
	// "island" is the whole machine (or indistinguishable from it).
	times := model.Times{TF: 1, TA: 0.000029, TC: 0.000006}
	plan, err := PlanHierarchy(64, times, 0.1, 20000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IslandEfficiency < 0.95 {
		t.Fatalf("expensive evaluations should stay efficient: %+v", plan)
	}
}

func TestPlanHierarchyValidation(t *testing.T) {
	if _, err := PlanHierarchy(2, model.Times{TF: 1}, 0.1, 100, 1); err == nil {
		t.Error("tiny machine accepted")
	}
}
