package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Print writes every metric of the report by name with its unit:
// the end-to-end table first, then each workload's per-layer numbers.
func (r *Report) Print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "borgbench seed=%d reps=%d scale=1/%d  %s nproc=%d GOMAXPROCS=%d GOGC=%s kernel=%s commit=%s\n\n",
		r.Seed, r.Reps, r.Scale, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.GOGC, e.Kernel, e.Commit)
	fmt.Fprintf(w, "%-18s %-16s %-6s %14s %14s %14s %4s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
	for _, wr := range r.Workloads {
		for _, m := range EndToEnd {
			s := wr.EndToEnd[m.Name]
			fmt.Fprintf(w, "%-18s %-16s %-6s %14.4f %14.4f %14.4f %4d\n", wr.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(w, "%-18s %-16s %-6s %14d\n", wr.Name, "ops_attempted", "count", wr.Attempted)
		fmt.Fprintf(w, "%-18s %-16s %-6s %14d\n\n", wr.Name, "ops_failed", "count", wr.Failed)
	}
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "per-layer: %s\n", wr.Name)
		for _, m := range PerLayer {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, wr.PerLayer[m.Name], m.Unit)
		}
		if tr := wr.TracedRep; tr != nil {
			fmt.Fprintf(w, "  %-34s %14.4f us (function evaluation inside the replay; a named term of ladder.coverage)\n",
				"problems.eval_us", tr.Layers["problems.eval_us"])
		}
		fmt.Fprintln(w)
	}
	for _, wr := range r.Workloads {
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "FAILED CHECK %s\n", f)
		}
	}
	for _, msg := range r.Warnings {
		fmt.Fprintf(w, "warning: %s\n", msg)
	}
}

// WriteFile stores the report as JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report written by WriteFile.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Value is one metric value of a result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ResultLine is the single JSON object a one-workload run prints as
// the last line of its standard output.
type ResultLine struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// ResultLine renders one workload's report: every per-layer metric
// when perLayer is set, else every end-to-end metric.
func (wr *WorkloadReport) ResultLine(perLayer bool) ResultLine {
	line := ResultLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]Value{}}
	if perLayer {
		for _, m := range PerLayer {
			line.Metrics[m.Name] = Value{wr.PerLayer[m.Name], m.Unit}
		}
		return line
	}
	for _, m := range EndToEnd {
		line.Metrics[m.Name] = Value{wr.EndToEnd[m.Name].Median, m.Unit}
	}
	return line
}

// Row is one workload × end-to-end metric comparison.
type Row struct {
	Workload string
	Metric   Metric
	Old, New Summary
	// Delta is by what share of the old median the new one is worse
	// (negative: better).
	Delta   float64
	Verdict Verdict
}

// Compare judges every workload × end-to-end metric of cand against
// base, in report order.
func Compare(base, cand *Report) []Row {
	var rows []Row
	for _, bw := range base.Workloads {
		cw := cand.Workload(bw.Name)
		if cw == nil {
			continue
		}
		for _, m := range EndToEnd {
			o, n := bw.EndToEnd[m.Name], cw.EndToEnd[m.Name]
			rows = append(rows, Row{bw.Name, m, o, n, Worsening(m, o.Median, n.Median), Judge(m, o, n)})
		}
	}
	return rows
}

// PrintRows writes a comparison table and reports whether any row's
// delta exceeds its metric's bound.
func PrintRows(w io.Writer, rows []Row) (regressed bool) {
	fmt.Fprintf(w, "%-18s %-16s %-6s %12s [%11s %11s] %12s [%11s %11s] %8s %6s  %s\n",
		"workload", "metric", "unit", "old", "q1", "q3", "new", "q1", "q3", "delta", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-16s %-6s %12.4f [%11.4f %11.4f] %12.4f [%11.4f %11.4f] %+7.2f%% %5.0f%%  %s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, r.Old.Median, r.Old.Q1, r.Old.Q3,
			r.New.Median, r.New.Q1, r.New.Q3, 100*r.Delta, 100*r.Metric.Bound, r.Verdict)
		regressed = regressed || r.Verdict == Worse
	}
	return regressed
}
