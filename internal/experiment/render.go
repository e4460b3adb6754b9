package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"

	"borgmoea/internal/stats"
)

// WriteTable2 renders cells in the paper's Table II layout.
func WriteTable2(w io.Writer, cells []Table2Cell) error {
	_, err := fmt.Fprintf(w, "%-9s %5s %10s %10s %8s %9s %5s | %9s %6s | %9s %6s\n",
		"Problem", "P", "TA", "TC", "TF", "Time", "Eff",
		"AnaTime", "AnaErr", "SimTime", "SimErr")
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", 110)); err != nil {
		return err
	}
	prevKey := ""
	for _, c := range cells {
		key := fmt.Sprintf("%s-%g", c.Problem, c.TF)
		if prevKey != "" && key != prevKey {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		prevKey = key
		_, err := fmt.Fprintf(w, "%-9s %5d %10.6f %10.6f %8.3f %9.1f %5.2f | %9.1f %5.0f%% | %9.1f %5.0f%%\n",
			c.Problem, c.P, c.TA, c.TC, c.TF, c.Time, c.Efficiency,
			c.AnalyticalTime, 100*c.AnalyticalError,
			c.SimulationTime, 100*c.SimulationError)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteTable2CSV renders cells as CSV.
func WriteTable2CSV(w io.Writer, cells []Table2Cell) error {
	if _, err := fmt.Fprintln(w, "problem,p,ta,tc,tf,time,efficiency,analytical_time,analytical_error,simulation_time,simulation_error,fitted_ta"); err != nil {
		return err
	}
	for _, c := range cells {
		_, err := fmt.Fprintf(w, "%s,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%s\n",
			c.Problem, c.P, c.TA, c.TC, c.TF, c.Time, c.Efficiency,
			c.AnalyticalTime, c.AnalyticalError, c.SimulationTime, c.SimulationError, c.FittedTA)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteSpeedup renders one Figure 3/4 panel as a table: thresholds
// down the rows, one speedup column per processor count.
func WriteSpeedup(w io.Writer, r *SpeedupResult) error {
	if _, err := fmt.Fprintf(w, "%s  TF=%g  (attainable HV %.4f)\n", r.Problem, r.TFMean, r.AttainableHV); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%9s", "h"); err != nil {
		return err
	}
	for _, s := range r.Series {
		if _, err := fmt.Fprintf(w, " %8s", fmt.Sprintf("P=%d", s.P)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, f := range r.ThresholdFractions {
		if _, err := fmt.Fprintf(w, "%9.2f", f); err != nil {
			return err
		}
		for _, s := range r.Series {
			v := s.Speedup[i]
			if math.IsNaN(v) {
				if _, err := fmt.Fprintf(w, " %8s", "-"); err != nil {
					return err
				}
			} else if _, err := fmt.Fprintf(w, " %8.1f", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpeedupCSV renders a panel as CSV rows
// (problem,tf,p,threshold,speedup).
func WriteSpeedupCSV(w io.Writer, r *SpeedupResult) error {
	if _, err := fmt.Fprintln(w, "problem,tf,p,threshold_fraction,threshold_hv,speedup"); err != nil {
		return err
	}
	for _, s := range r.Series {
		for i, f := range r.ThresholdFractions {
			_, err := fmt.Fprintf(w, "%s,%g,%d,%g,%g,%g\n",
				r.Problem, r.TFMean, s.P, f, r.Thresholds[i], s.Speedup[i])
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// heatRunes maps efficiency in [0,1] to a shade ramp.
var heatRunes = []rune(" .:-=+*#%@")

// WriteSurface renders an efficiency surface as an ASCII heatmap
// (T_F down the rows, P across the columns), the textual analogue of
// the paper's Figure 5 color plots.
func WriteSurface(w io.Writer, title string, s Surface) error {
	if _, err := fmt.Fprintf(w, "%s (rows: TF, cols: P; ' '=0 .. '@'=1)\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s", ""); err != nil {
		return err
	}
	for _, p := range s.P {
		if _, err := fmt.Fprintf(w, "%7d", p); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, tf := range s.TF {
		if _, err := fmt.Fprintf(w, "%10.2e", tf); err != nil {
			return err
		}
		for j := range s.P {
			e := s.Eff[i][j]
			idx := int(e * float64(len(heatRunes)))
			if idx >= len(heatRunes) {
				idx = len(heatRunes) - 1
			}
			if idx < 0 {
				idx = 0
			}
			if _, err := fmt.Fprintf(w, "   %c%3.0f", heatRunes[idx], e*100); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteSurfaceCSV renders both surfaces as CSV rows
// (model,tf,p,efficiency).
func WriteSurfaceCSV(w io.Writer, r *SurfaceResult) error {
	if _, err := fmt.Fprintln(w, "model,tf,p,efficiency"); err != nil {
		return err
	}
	emit := func(name string, s Surface) error {
		for i, tf := range s.TF {
			for j, p := range s.P {
				if _, err := fmt.Fprintf(w, "%s,%g,%d,%g\n", name, tf, p, s.Eff[i][j]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := emit("sync", r.Sync); err != nil {
		return err
	}
	return emit("async", r.Async)
}

// WriteTimingReport renders a TimingReport: the fit ranking, then the
// least-squares models of T_A and the counted T_A.
func WriteTimingReport(w io.Writer, r *TimingReport) error {
	var b strings.Builder
	fmt.Fprintf(&b, "T_A on %s: %s (CV %.2f)\n", r.Problem, r.Summary, r.Summary.CV())
	for i, f := range r.Fits {
		marker := " "
		if i == 0 {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s %-30s loglik=%12.1f AIC=%12.1f\n",
			marker, f.Dist.String(), f.LogLikelihood, f.AIC)
	}
	fmt.Fprintf(&b, "spike share %.1f%% (brackets over 20x the median); counted T_A: mean %.3g s\n",
		100*r.SpikeShare, stats.Summarize(r.Counted).Mean)
	fit := func(name string, f CostFit, cols []string) {
		fmt.Fprintf(&b, "  %-10s R2=%.4f block R2=%.4f", name, f.R2, f.BlockR2)
		for j, c := range f.Coef {
			if cols == nil {
				fmt.Fprintf(&b, " scale=%.3f", c)
				continue
			}
			fmt.Fprintf(&b, " %s=%.4gps", cols[j], 1e12*c)
		}
		b.WriteByte('\n')
	}
	fit("work", r.Work, workColumns)
	fit("committed", r.Committed, nil)
	fit("sizes", r.Sizes, []string{"1", "|A|", "|pop|"})
	for j, c := range workColumns {
		fmt.Fprintf(&b, "  without %-12s block R2=%.4f\n", c, r.DropBlockR2[j])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
