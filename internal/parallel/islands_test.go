package parallel

import (
	"bytes"
	"math"
	"testing"

	"borgmoea/internal/core"
	"borgmoea/internal/fault"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

func islandBase(perP int, evals uint64) Config {
	return Config{
		Problem:     problems.NewDTLZ2(5),
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(5, 0.15)},
		Processors:  perP,
		Evaluations: evals,
		TF:          stats.NewConstant(0.001),
		TA:          stats.NewConstant(0.000029),
		TC:          stats.NewConstant(0.000006),
		Seed:        1,
	}
}

func TestIslandsValidation(t *testing.T) {
	cfg := IslandsConfig{Base: islandBase(8, 100), Islands: 0}
	if _, err := RunIslands(cfg); err == nil {
		t.Error("zero islands accepted")
	}
	cfg = IslandsConfig{Base: islandBase(8, 100), Islands: 2}
	cfg.Base.Fault = fault.FailedFractionPlan(0.1, 0.5, 1)
	if _, err := RunIslands(cfg); err == nil {
		t.Error("fault plan accepted for islands")
	}
}

// TestIslandsCaptureTimings verifies the aggregated per-island timing
// capture: every island's T_A samples, drawn or counted, and every
// worker's T_F samples land in the merged result.
func TestIslandsCaptureTimings(t *testing.T) {
	cfg := IslandsConfig{Base: islandBase(8, 500), Islands: 2}
	cfg.Base.CaptureTimings = true
	res, err := RunIslands(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each island records 7 seeding TAs plus one per accepted
	// evaluation (migration disabled → no migrant TAs).
	wantTA := 2 * (7 + 500)
	if len(res.TASamples) != wantTA {
		t.Fatalf("TA samples = %d, want %d", len(res.TASamples), wantTA)
	}
	// Every budgeted evaluation ran on some worker (the island master
	// does not evaluate in the async protocol); seeded solutions whose
	// results arrive after the budget are still sampled, so the count
	// is at least the total budget.
	if len(res.TFSamples) < 1000 {
		t.Fatalf("TF samples = %d, want >= 1000", len(res.TFSamples))
	}
	if res.MeanTA <= 0 || res.MeanTF <= 0 {
		t.Fatalf("mean timings not aggregated: TA=%v TF=%v", res.MeanTA, res.MeanTF)
	}
	if math.Abs(res.MeanTF-0.001) > 1e-12 || math.Abs(res.MeanTA-0.000029) > 1e-12 {
		t.Fatalf("constant-distribution means drifted: TA=%v TF=%v", res.MeanTA, res.MeanTF)
	}
	// Without a distribution each island master charges its own Borg's
	// counted work.
	cfg.Base.TA = nil
	counted, err := RunIslands(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(counted.TASamples) != wantTA || counted.MeanTA <= 0 {
		t.Fatalf("counted T_A: %d samples, mean %v", len(counted.TASamples), counted.MeanTA)
	}
}

func TestIslandsCompleteBudgets(t *testing.T) {
	cfg := IslandsConfig{Base: islandBase(8, 1000), Islands: 3}
	res, err := RunIslands(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvaluations != 3000 {
		t.Fatalf("total evaluations = %d, want 3000", res.TotalEvaluations)
	}
	for i, b := range res.Islands {
		if b.Evaluations() != 1000 {
			t.Fatalf("island %d completed %d evaluations", i, b.Evaluations())
		}
		if res.IslandElapsed[i] <= 0 {
			t.Fatalf("island %d has no elapsed time", i)
		}
	}
	if len(res.MergedFront) == 0 {
		t.Fatal("merged front empty")
	}
}

// TestSingleIslandMatchesMonolithic: one island is RunAsync — the same
// master body, on streams derived from the same seed — so the archive,
// the protocol log and the elapsed time agree to the bit. Sampled T_F,
// T_A and T_C make every stream count.
func TestSingleIslandMatchesMonolithic(t *testing.T) {
	cfg := islandBase(8, 2000)
	cfg.TF = stats.GammaFromMeanCV(0.001, 0.1)
	cfg.TA = stats.GammaFromMeanCV(0.000029, 0.5)
	cfg.TC = stats.GammaFromMeanCV(0.000006, 0.5)
	islandLog := master.NewLog()
	res, err := RunIslands(IslandsConfig{Base: cfg, Islands: 1, Logs: []*master.Log{islandLog}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = master.NewLog()
	mono, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := core.SaveArchive(&got, res.Islands[0].Archive()); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveArchive(&want, mono.Final.Archive()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("single-island archive differs from RunAsync's")
	}
	if !bytes.Equal(islandLog.CanonicalBytes(), cfg.Protocol.CanonicalBytes()) {
		t.Error("single-island protocol log differs canonically from RunAsync's")
	}
	if math.Float64bits(res.ElapsedTime) != math.Float64bits(mono.ElapsedTime) {
		t.Errorf("single island elapsed %v, RunAsync %v", res.ElapsedTime, mono.ElapsedTime)
	}
}

// TestIslandsBeatSaturatedMonolith reproduces the paper's Section VI
// recommendation: when TF is too small for the processor count, many
// small islands finish the same total budget far sooner than one
// saturated master-slave instance.
func TestIslandsBeatSaturatedMonolith(t *testing.T) {
	const totalP = 128
	const totalEvals = 40000
	// Monolithic: one master, 127 workers, saturated (P_UB ≈ 24).
	mono, err := RunAsync(islandBase(totalP, totalEvals))
	if err != nil {
		t.Fatal(err)
	}
	// 8 islands × 16 processors, same machine, same total budget.
	cfg := IslandsConfig{Base: islandBase(16, totalEvals/8), Islands: 8}
	isl, err := RunIslands(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if isl.TotalEvaluations != totalEvals {
		t.Fatalf("island total = %d, want %d", isl.TotalEvaluations, totalEvals)
	}
	if isl.ElapsedTime >= mono.ElapsedTime {
		t.Fatalf("islands (%v) did not beat the saturated monolith (%v)",
			isl.ElapsedTime, mono.ElapsedTime)
	}
	speedup := mono.ElapsedTime / isl.ElapsedTime
	if speedup < 2 {
		t.Fatalf("island speedup over monolith only %.2f, expected substantial", speedup)
	}
	// And the merged front must still be a competent approximation.
	ref := make([]float64, 5)
	for i := range ref {
		ref[i] = 1.1
	}
	hvIslands := metrics.HypervolumeMC(isl.MergedFront, ref, 20000, 1)
	hvMono := metrics.HypervolumeMC(mono.Final.Archive().Objectives(), ref, 20000, 1)
	if hvIslands < 0.9*hvMono {
		t.Fatalf("island merged HV %v fell far below monolith %v", hvIslands, hvMono)
	}
}

func TestIslandsMigration(t *testing.T) {
	cfg := IslandsConfig{
		Base:           islandBase(8, 3000),
		Islands:        4,
		MigrationEvery: 500,
	}
	res, err := RunIslands(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrants == 0 {
		t.Fatal("migration enabled but no migrants exchanged")
	}
	// 4 islands × 3000 evals / 500 = 24 expected migrations.
	if res.Migrants != 24 {
		t.Fatalf("migrants = %d, want 24", res.Migrants)
	}
	if res.TotalEvaluations != 12000 {
		t.Fatalf("migrants were charged as evaluations: total = %d", res.TotalEvaluations)
	}
}

func TestIslandsMigrationOffByDefault(t *testing.T) {
	res, err := RunIslands(IslandsConfig{Base: islandBase(8, 1000), Islands: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrants != 0 {
		t.Fatalf("unexpected migrants: %d", res.Migrants)
	}
}
