package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for borgbench: the driver
// re-executes os.Executable() with "-child ...", which here is the
// test binary itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := Main(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "borgbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.125, 2}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("Percentile sorted its argument in place")
	}
	if got := Median([]float64{4, 2}); got != 3 {
		t.Errorf("Median of two = %v, want their mean 3", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median of nothing should be NaN")
	}
	s := Summarize(xs)
	if s != (Summary{Median: 5, Q1: 3, Q3: 7, N: 5}) {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestTailPercentile(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	// 400 samples support p95 (20 beyond); 80 only p87.5 (10 beyond);
	// 8 nothing but the median.
	for _, c := range []struct {
		n    int
		used float64
	}{{400, 0.95}, {80, 0.875}, {8, 0.5}} {
		v, used := TailPercentile(sample(c.n), 0.95)
		if used != c.used {
			t.Errorf("n=%d: used quantile %v, want %v", c.n, used, c.used)
		}
		if want := Percentile(sample(c.n), c.used); v != want {
			t.Errorf("n=%d: value %v, want %v", c.n, v, want)
		}
	}
}

func TestWorseningAndJudge(t *testing.T) {
	lower := Metric{Name: "t", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "r", Better: "higher", Bound: 0.10}
	if got := Worsening(lower, 100, 105); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("lower-is-better 100→105 worsened by %v, want 0.05", got)
	}
	if got := Worsening(higher, 100, 105); math.Abs(got+0.05) > 1e-12 {
		t.Errorf("higher-is-better 100→105 worsened by %v, want -0.05", got)
	}
	tight := func(m float64) Summary { return Summary{Median: m, Q1: m - 0.5, Q3: m + 0.5, N: 10} }
	wide := func(m float64) Summary { return Summary{Median: m, Q1: m - 8, Q3: m + 8, N: 10} }
	for _, c := range []struct {
		name      string
		m         Metric
		old, cand Summary
		want      Verdict
	}{
		{"past the bound is worse even when noisy", lower, wide(100), wide(115), Worse},
		{"past the bound the other way is better", lower, wide(100), wide(85), Better},
		{"inside the bound with overlapping quartiles", lower, wide(100), wide(104), Unresolved},
		{"inside the bound, disjoint quartiles, improved", lower, tight(100), tight(96), Better},
		{"inside the bound, disjoint quartiles, tolerated", lower, tight(100), tight(104), Same},
		{"identical medians", lower, tight(100), wide(100), Same},
		{"higher is better: a drop past the bound", higher, tight(100), tight(88), Worse},
		{"higher is better: a small real gain", higher, tight(100), tight(104), Better},
	} {
		if got := Judge(c.m, c.old, c.cand); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestBudgetReps(t *testing.T) {
	for _, c := range []struct {
		budget, first time.Duration
		want          int
	}{
		{24 * time.Second, 1600 * time.Millisecond, 3 * SubSeeds},
		{24 * time.Second, 2700 * time.Millisecond, SubSeeds},
		{24 * time.Second, 2400 * time.Millisecond, 2 * SubSeeds},
		{time.Second, 3 * time.Second, SubSeeds},  // too slow for the budget: one cycle still
		{-time.Second, 2 * time.Second, SubSeeds}, // the traced pass already overran it
	} {
		if got := budgetReps(c.budget, c.first); got != c.want {
			t.Errorf("budgetReps(%v, %v) = %d, want %d", c.budget, c.first, got, c.want)
		}
	}
}

func TestCheckFront(t *testing.T) {
	eps := []float64{0.1, 0.1}
	good := [][]float64{{0.05, 0.95}, {0.55, 0.55}, {0.95, 0.05}}
	if err := checkFront(good, eps); err != nil {
		t.Errorf("a mutually ε-nondominated front failed: %v", err)
	}
	for name, bad := range map[string][][]float64{
		"empty":         nil,
		"same box":      {{0.51, 0.52}, {0.55, 0.58}},
		"box dominated": {{0.15, 0.15}, {0.35, 0.25}},
		"not finite":    {{0.1, math.NaN()}},
		"wrong length":  {{0.1, 0.2, 0.3}},
	} {
		if err := checkFront(bad, eps); err == nil {
			t.Errorf("%s: check passed, want a failure", name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []Metric `json:"end_to_end"`
	PerLayer   []Metric `json:"per_layer"`
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables this package
// measures: same workloads, same metrics with the same units, a bound
// for separate runs no tighter than the one for interleaved sets, all
// inside the file format's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", f.RunSeconds)
	}
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(f.Workloads), len(Workloads))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the package has %q (%q)", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the 16/128 limits", len(f.EndToEnd), len(f.PerLayer))
	}
	compare := func(kind string, got, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the package", len(got), kind, len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if w := want[i]; m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s metric %d is %+v, the package has %+v", kind, i, m, w)
			}
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the allowed alphabet or length", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound < want[i].Bound || m.Bound > 0.25 {
				t.Errorf("%s: bound %v (end-to-end metrics need one in [%v, 0.25], per-layer metrics have none)", m.Name, m.Bound, want[i].Bound)
			}
		}
	}
	compare("end-to-end", f.EndToEnd, EndToEnd, true)
	compare("per-layer", f.PerLayer, PerLayer, false)
	if !seen[SetupS] {
		t.Error("no setup_s metric")
	}
	for _, w := range Workloads {
		if !seen[w.Residual] {
			t.Errorf("workload %s: residual metric %q is not a per-layer metric", w.Name, w.Residual)
		}
	}
}

// TestQuickSmoke runs the whole benchmark — five workloads, every
// output check, ladder and traced pass — at 1/20 size with one rep,
// then round-trips the report through the comparator.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	out := filepath.Join(t.TempDir(), "quick.json")
	var stdout bytes.Buffer
	start := time.Now()
	if err := Main([]string{"-quick", "-out", out}, &stdout, os.Stderr); err != nil {
		t.Fatalf("borgbench -quick: %v\n%s", err, stdout.String())
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("-quick took %v, want under 15s", d)
	}
	rpt, err := ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpt.Workloads) != len(Workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rpt.Workloads), len(Workloads))
	}
	for _, wr := range rpt.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", wr.Name, wr.Attempted, wr.Failed, wr.Failures)
		}
		for _, m := range EndToEnd {
			if s := wr.EndToEnd[m.Name]; !(s.Median > 0) {
				t.Errorf("%s: %s = %v, want a positive value", wr.Name, m.Name, s.Median)
			}
			if !strings.Contains(stdout.String(), m.Name) {
				t.Errorf("printed table does not name %s", m.Name)
			}
		}
		line := wr.ResultLine(true)
		if len(line.Metrics) != len(PerLayer) {
			t.Errorf("%s: per-layer result line has %d metrics, want %d", wr.Name, len(line.Metrics), len(PerLayer))
		}
		pl := wr.PerLayer
		if pl["core.suggest_us"] <= 0 || pl["master.handle_self_us"] <= 0 || pl["ladder.coverage"] <= 0 {
			t.Errorf("%s: traced pass left core.suggest_us=%v master.handle_self_us=%v ladder.coverage=%v",
				wr.Name, pl["core.suggest_us"], pl["master.handle_self_us"], pl["ladder.coverage"])
		}
		// Named layers and the residual sum to the end-to-end figure.
		named := pl["ladder.coverage"] * wr.EndToEnd[CPUUsPerEval].Median
		w, _ := FindWorkload(wr.Name)
		if sum := named + pl[w.Residual]; math.Abs(sum-wr.EndToEnd[CPUUsPerEval].Median) > 1e-6 {
			t.Errorf("%s: named layers %v + residual %v != cpu_us_per_eval %v", wr.Name, named, pl[w.Residual], wr.EndToEnd[CPUUsPerEval].Median)
		}
	}
	if rpt.Workload("des-table2-p1024").PerLayer["wire.frames_per_eval"] != 0 {
		t.Error("the DES workload reports wire frames")
	}
	if rpt.Workload("fed-ring-2x1").PerLayer["federation.migrants"] == 0 {
		t.Error("the federation workload reports no migrants")
	}
	if rpt.Ladder["wire.roundtrip_allocs"] != 0 {
		t.Errorf("wire round trip allocates %v per evaluation, want 0", rpt.Ladder["wire.roundtrip_allocs"])
	}

	// A report compared with itself is the same everywhere.
	for _, row := range Compare(rpt, rpt) {
		if row.Verdict != Same || row.Delta != 0 {
			t.Errorf("%s %s against itself: %s (%+.2f%%)", row.Workload, row.Metric.Name, row.Verdict, 100*row.Delta)
		}
	}
	stdout.Reset()
	if err := Main([]string{"-compare", out, out}, &stdout, os.Stderr); err != nil {
		t.Errorf("-compare of a report with itself: %v", err)
	}
}
