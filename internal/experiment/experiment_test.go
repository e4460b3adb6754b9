package experiment

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

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
			AttainableHV: math.Float64frombits(0x3ff10efb4ae47fc9),
			Thresholds: bits(0x3fbb4b2bab0732dc, 0x3fcb4b2bab0732dc, 0x3fd47860c0456624, 0x3fdb4b2bab0732dc, 0x3fe10efb4ae47fc9,
				0x3fe47860c0456624, 0x3fe7e1c635a64c7f, 0x3feb4b2bab0732dc, 0x3feeb49120681937, 0x3ff10efb4ae47fc9),
			SerialTimeToThreshold: bits(0x400001247d53b8f3, 0x400001247d53b8f3, 0x40100100ddee83bc, 0x401801d9a5ba4293, 0x401801d9a5ba4293,
				0x4024015368f962e0, 0x4024015368f962e0, 0x403000fac5f7d11c, 0x4036012ea548d421, 0x403c01d3ba7fa9c2),
			Series: []SpeedupSeries{
				{P: 8, Speedup: bits(0x401be51cb33a2b63, 0x401be51cb33a2b63, 0x401c361790fd428c, 0x40151f4109cba2d8, 0x40151f4109cba2d8,
					0x401c200d904f99e4, 0x40140cb020dd0d97, 0x40167086550ca790, 0x4017b6e612d7a182, 0x40139cba1556ee46)},
				{P: 16, Speedup: bits(0x402cb32fdbb88bea, 0x401d822a4f110a15, 0x4023d071f453f05a, 0x402db91850163906, 0x4021da7c06e821ea,
					0x4028cce3417179b1, 0x40254820c5571adf, 0x402a87691a43a8a3, 0x40277c139e0651e8, 0x4024ecc239a32003)},
			},
		},
		3: {
			Problem: "DTLZ2_5", TFMean: 0.01, ThresholdFractions: fractions,
			AttainableHV: math.Float64frombits(0x3ff0724faab824f7),
			Thresholds: bits(0x3fba507f778d07f2, 0x3fca507f778d07f2, 0x3fd3bc5f99a9c5f5, 0x3fda507f778d07f2, 0x3fe0724faab824f7,
				0x3fe3bc5f99a9c5f5, 0x3fe7066f889b66f3, 0x3fea507f778d07f2, 0x3fed9a8f667ea8f0, 0x3ff0724faab824f7),
			SerialTimeToThreshold: bits(0x40000104e0aebbc9, 0x401000e280d638b8, 0x402000f0f490b463, 0x402401834f9ae6d9, 0x402401834f9ae6d9,
				0x402c01ad5b196194, 0x40320171ca1df80e, 0x403801ac158743b3, 0x403c0243492606cb, 0x40430173192e9611),
			Series: []SpeedupSeries{
				{P: 8, Speedup: bits(0x401bdda532e02cdc, 0x402bdd6958c3e82e, 0x402bd92f912c7d12, 0x40274042842ea773, 0x40217ffd10ff18b5,
					0x402395eebb151439, 0x402200cb10152719, 0x4022ab49c4831763, 0x4020566506916a52, 0x4020a119f13ac85b)},
				{P: 16, Speedup: bits(0x402ce22c1bad0780, 0x402d8a78ec28d6f4, 0x4033dd99486aaa18, 0x4032969bb24b77f6, 0x402dd84141f815f9,
					0x402ddf6fd4932f12, 0x402deafc06683ba5, 0x4031f30bec70d7b1, 0x402df36a30bbaa52, 0x402c6d1234c2e51b)},
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
