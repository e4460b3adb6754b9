package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"borgmoea/internal/model"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
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
		TAOverride:    stats.NewConstant(0.000029),
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
		// Unsaturated regime (P_UB ≈ 244): both models should be
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
	cfg.TFMeans = []float64{0.001} // P_UB ≈ 24
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

func TestTable2MeasuredTAMode(t *testing.T) {
	cfg := smallTable2Config()
	cfg.TAOverride = nil // measure real CPU time
	cfg.Processors = []int{8}
	cfg.Evaluations = 2000
	cfg.Replicates = 1
	cfg.SimReplicates = 1
	cells, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].TA <= 0 {
		t.Fatal("measured TA not recorded")
	}
	if cells[0].FittedTA == "" {
		t.Fatal("no TA distribution fitted")
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
		TAOverride:      stats.NewConstant(0.000029),
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

// TestRunSpeedupPinned: the toy panel's result, recorded from the
// commit before the hypervolume kernel was rebuilt and the meter
// stopped re-filtering archive fronts, bit for bit — neither may move
// a threshold or a series.
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
			AttainableHV: math.Float64frombits(0x3ff11dd2f65c932b),
			Thresholds: bits(0x3fbb62eb23c751df, 0x3fcb62eb23c751df, 0x3fd48a305ad57d67, 0x3fdb62eb23c751df, 0x3fe11dd2f65c932b,
				0x3fe48a305ad57d67, 0x3fe7f68dbf4e67a2, 0x3feb62eb23c751df, 0x3feecf4888403c1a, 0x3ff11dd2f65c932b),
			SerialTimeToThreshold: bits(0x40000be0ded288ce, 0x40000be0ded288ce, 0x40100be0ded288ce, 0x401811d14e3bcd35, 0x401811d14e3bcd35,
				0x40240ed916872b02, 0x40240ed916872b02, 0x40300be0ded288ce, 0x4036105532617c1c, 0x403c14c985f06f69),
			Series: []SpeedupSeries{
				{P: 8, Speedup: bits(0x401bdf36b064b3e3, 0x401bdf36b064b3e3, 0x4012bc8c0ef0bbda, 0x401c1ad2166919c7, 0x40151dc7642022dc,
					0x4017673a02300335, 0x40118ae369dd418d, 0x40145f2d3a4b44d1, 0x4017b6877b2b11e4, 0x40139c54860375be)},
				{P: 16, Speedup: bits(0x402ca2b3e1abdb9f, 0x401d7d0bb7c9c40d, 0x4023cdebe1512ecd, 0x40264558f757a220, 0x40264558f757a220,
					0x4028cad3eeeb9e31, 0x40229c834c6e7936, 0x402dc7387a4a5b89, 0x4025eb25464f3bda, 0x4024eb900dcedfca)},
			},
		},
		3: {
			Problem: "DTLZ2_5", TFMean: 0.01, ThresholdFractions: fractions,
			AttainableHV: math.Float64frombits(0x3ff06f034bb9e7c5),
			Thresholds: bits(0x3fba4b38792972d5, 0x3fca4b38792972d5, 0x3fd3b86a5adf161f, 0x3fda4b38792972d5, 0x3fe06f034bb9e7c5,
				0x3fe3b86a5adf161f, 0x3fe701d16a04447a, 0x3fea4b38792972d5, 0x3fed949f884ea130, 0x3ff06f034bb9e7c5),
			SerialTimeToThreshold: bits(0x40000be0ded288ce, 0x40100be0ded288ce, 0x40200be0ded288ce, 0x40240ed916872b02, 0x40240ed916872b02,
				0x402c14c985f06f69, 0x40320d5cfaacd9e8, 0x403811d14e3bcd35, 0x403c14c985f06f69, 0x40430e1b089a0275),
			Series: []SpeedupSeries{
				{P: 8, Speedup: bits(0x401bd819904cf131, 0x401bd7efa75e19ca, 0x402298f097b1131f, 0x40273f2cbd9d57e7, 0x401bf9acf4277bac,
					0x4023952c448209c5, 0x4024f82769987d58, 0x4022aa7e0f0cc774, 0x4021d1b3ec99b6d6, 0x4021bb84a36a3be8)},
				{P: 16, Speedup: bits(0x401d84ec0b5f37b2, 0x401db95b313b4191, 0x402db95b313b4191, 0x4028e0d64d8a09c4, 0x4025544c0039464e,
					0x402ddc6a66b695a0, 0x402de9f4a92f4db0, 0x402de6cc5e4d0aba, 0x402befb55df46670, 0x402c6b8c5b8ab273)},
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
	if len(rep.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	if rep.Summary.Mean <= 0 {
		t.Fatal("non-positive mean TA")
	}
	if len(rep.Fits) == 0 {
		t.Fatal("no distributions fitted")
	}
	var sb strings.Builder
	if err := WriteTimingReport(&sb, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "T_A on DTLZ2_5") {
		t.Errorf("timing report malformed:\n%s", sb.String())
	}
}

// TestUF11TAHigherThanDTLZ2 reproduces the paper's Table II pattern
// that UF11's larger per-evaluation algorithm cost (driven by its
// 30-variable solutions and harder archive dynamics) exceeds DTLZ2's.
func TestUF11TAHigherThanDTLZ2(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	repD, err := CollectTimings(problems.NewDTLZ2(5), 4000, 6)
	if err != nil {
		t.Fatal(err)
	}
	repU, err := CollectTimings(problems.NewUF11(), 4000, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Medians are robust to GC spikes.
	if repU.Summary.Median <= repD.Summary.Median {
		t.Logf("warning: UF11 median TA %.2e not above DTLZ2 %.2e (timing noise?)",
			repU.Summary.Median, repD.Summary.Median)
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
