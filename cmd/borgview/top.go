package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	neturl "net/url"
	"os"
	"strings"
	"time"

	"borgmoea"
	"borgmoea/internal/ascii"
)

// runTop is `borgview top`, a terminal dashboard for the live
// scalability advisor: it tails a running master's /debug/scaling
// endpoint (or an -advise-out JSONL journal) and renders the paper's
// model quantities as they evolve — fitted T_F/T_A/T_C, predicted vs
// observed speedup and efficiency, the processor bounds, master
// saturation, model drift, and a per-worker straggler view. When the
// master runs with -quality-* it adds a search-health pane: the
// hypervolume trajectory, ε-progress rate with stall/regression alerts,
// and the live adaptive operator mix (from /debug/quality).
//
// Usage:
//
//	borgview top -addr localhost:6060             # follow a live master (-debug-addr)
//	borgview top -addr localhost:6060 -job j000001  # one job on a borgsvc server
//	borgview top -fed -addr localhost:6060        # follow a borg -islands federation roll-up
//	borgview top -file scaling.jsonl              # follow an -advise-out journal
//	borgview top -addr localhost:6060 -once       # one report, no screen control
//
// -fed renders the federated view of a borg -islands k -transport tcp
// -debug-addr endpoint: the pooled timing fit, the single-master P_UB
// the federation is sailing past, aggregate speedup/effective
// processors, and one row per island.
func runTop(fs *flag.FlagSet, args []string) int {
	var (
		addr  = fs.String("addr", "", "master debug address to poll (host:port of borg -debug-addr)")
		job   = fs.String("job", "", "job id on a borgsvc job server: poll that job's per-run analysis")
		file  = fs.String("file", "", "advisor JSONL journal to follow (borg -advise-out path)")
		every = fs.Duration("every", time.Second, "refresh interval")
		once  = fs.Bool("once", false, "render one report and exit (no screen control)")
		fed   = fs.Bool("fed", false, "the endpoint is a federation (borg -islands k -transport tcp): render the multi-island roll-up")
	)
	fs.Parse(args)
	if (*addr == "") == (*file == "") {
		fmt.Fprintln(os.Stderr, "borgview top: need exactly one of -addr or -file")
		return 2
	}
	if *job != "" && *addr == "" {
		fmt.Fprintln(os.Stderr, "borgview top: -job needs -addr (a borgsvc server)")
		return 2
	}
	if *fed && *addr == "" {
		fmt.Fprintln(os.Stderr, "borgview top: -fed needs -addr (a borg -islands -debug-addr endpoint)")
		return 2
	}
	if *every < 100*time.Millisecond {
		*every = 100 * time.Millisecond
	}

	// screen fetches the newest report and renders it.
	screen := func() (string, error) {
		rep, err := load(*addr, *job, *file)
		if err != nil {
			return "", err
		}
		out := render(rep)
		// The quality pane needs the sampler's /debug/quality feed,
		// only available when following a live master directly. A
		// run without -quality-* (404 / no samples) just skips it.
		if *addr != "" && *job == "" {
			if qr, err := fetchQuality(*addr); err == nil {
				out += renderQualityPane(qr)
			}
		}
		return out, nil
	}
	if *fed {
		screen = func() (string, error) {
			fr, err := fetchFed(*addr)
			if err != nil {
				return "", err
			}
			return renderFed(fr), nil
		}
	}
	for {
		out, err := screen()
		switch {
		case err != nil && *once:
			fmt.Fprintf(os.Stderr, "borgview top: %v\n", err)
			return 1
		case err != nil:
			// A master that has not started (or already exited) is not
			// fatal when following: keep polling.
			fmt.Printf("\x1b[H\x1b[2Jborgview top: waiting for data: %v\n", err)
		case *once:
			fmt.Print(out)
			return 0
		default:
			fmt.Print("\x1b[H\x1b[2J" + out)
		}
		time.Sleep(*every)
	}
}

func fetchFed(addr string) (*borgmoea.FederationScalingReport, error) {
	var fr borgmoea.FederationScalingReport
	url, err := getJSON(addr, "/debug/scaling", &fr)
	if err != nil {
		return nil, err
	}
	if fr.Islands == 0 {
		return nil, fmt.Errorf("%s: no islands attached yet (is this a borg -islands endpoint?)", url)
	}
	return &fr, nil
}

// renderFed formats the federated roll-up screen: the aggregate view
// against the single-master ceiling, then one row per island.
func renderFed(fr *borgmoea.FederationScalingReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "borg federation   islands=%d  P=%d", fr.Islands, fr.Processors)
	if fr.Budget > 0 {
		fmt.Fprintf(&sb, "   N=%d/%d", fr.Completed, fr.Budget)
	} else {
		fmt.Fprintf(&sb, "   N=%d", fr.Completed)
	}
	fmt.Fprintf(&sb, "   t=%s\n\n", fmtSec(fr.Elapsed))

	t := fr.Times
	fmt.Fprintf(&sb, "pooled   T_F=%s  T_A=%s  T_C=%s   (%d samples)\n",
		fmtSec(t.TF), fmtSec(t.TA), fmtSec(t.TC), t.Samples)
	fmt.Fprintf(&sb, "ceiling  single-master P_UB=%.1f   federation effective processors=%.1f   ratio=%.2fx\n",
		fr.SingleMasterPUB, fr.AggregateEffectiveProcessors, fr.CeilingRatio)

	// The headline bar: aggregate speedup against the single-master
	// bound. Past 1.0 the federation is earning processors one master
	// cannot.
	scale := fr.SingleMasterPUB
	if scale <= 0 {
		scale = 1
	}
	fmt.Fprintf(&sb, "speedup  aggregate %7.2f |%s| %.1fx the single-master bound\n",
		fr.AggregateObservedSpeedup, ascii.Bar(fr.AggregateObservedSpeedup/(2*scale), 30),
		fr.AggregateObservedSpeedup/scale)
	fmt.Fprintf(&sb, "         efficiency %.2f over %d federated processors\n\n", fr.AggregateEfficiency, fr.Processors)

	sb.WriteString("islands  (N, t, observed speedup, effective P, master-util)\n")
	for i, r := range fr.Reports {
		fmt.Fprintf(&sb, "  %3d  N=%-8d t=%-8s S=%-7.2f |%s| effP=%-6.1f util=%.0f%%\n",
			i, r.Completed, fmtSec(r.Elapsed), r.ObservedSpeedup,
			ascii.Bar(r.ObservedSpeedup/scale, 16), r.EffectiveProcessors, 100*r.MasterUtilization)
	}
	return sb.String()
}

// load fetches the newest report from the configured source.
func load(addr, job, file string) (*borgmoea.AdvisorReport, error) {
	if addr != "" {
		return fetchHTTP(addr, job)
	}
	return lastLine(file)
}

func fetchHTTP(addr, job string) (*borgmoea.AdvisorReport, error) {
	path := "/debug/scaling"
	if job != "" {
		// A borgsvc job server serves one job's report — in the
		// single-run schema — under ?job=<id>.
		path += "?job=" + neturl.QueryEscape(job)
	}
	var rep borgmoea.AdvisorReport
	if _, err := getJSON(addr, path, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// lastLine returns the newest snapshot of an -advise-out journal.
func lastLine(path string) (*borgmoea.AdvisorReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var last string
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last == "" {
		return nil, fmt.Errorf("%s: no snapshots yet", path)
	}
	// Strict: a lenient decode would render a line that is no advisor
	// report (a metrics snapshot, say) as all zeros.
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	var rep borgmoea.AdvisorReport
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &rep, nil
}

// render formats one report as the dashboard screen.
func render(r *borgmoea.AdvisorReport) string {
	var sb strings.Builder

	fmt.Fprintf(&sb, "borg scalability advisor   P=%d", r.Processors)
	if r.LiveWorkers > 0 {
		fmt.Fprintf(&sb, " (%d workers live)", r.LiveWorkers)
	}
	if r.Budget > 0 {
		fmt.Fprintf(&sb, "   N=%d/%d", r.Completed, r.Budget)
	} else {
		fmt.Fprintf(&sb, "   N=%d", r.Completed)
	}
	fmt.Fprintf(&sb, "   t=%s", fmtSec(r.Elapsed))
	if r.ETASeconds > 0 {
		fmt.Fprintf(&sb, "   eta=%s", fmtSec(r.ETASeconds))
	}
	sb.WriteString("\n\n")

	t := r.Times
	fmt.Fprintf(&sb, "fitted   T_F=%s  T_A=%s  T_C=%s   (%d samples)\n",
		fmtSec(t.TF), fmtSec(t.TA), fmtSec(t.TC), t.Samples)
	fmt.Fprintf(&sb, "         T_F p50/p90/p99 = %s / %s / %s   cv=%.2f\n",
		fmtSec(t.TFP50), fmtSec(t.TFP90), fmtSec(t.TFP99), t.TFCV)
	fmt.Fprintf(&sb, "model    P_UB=%.1f  P_LB=%.1f  saturation=%.0f%%  master-util=%.0f%%  queue-wait=%s\n\n",
		r.ProcessorUpperBound, r.ProcessorLowerBound,
		100*r.Saturation, 100*r.MasterUtilization, fmtSec(r.QueueWaitMean))

	// Speedup bars, both scaled against P (the ceiling of either).
	scale := float64(r.Processors)
	if scale <= 0 {
		scale = 1
	}
	fmt.Fprintf(&sb, "speedup  predicted %6.2f |%s|  efficiency %.2f\n",
		r.PredictedSpeedup, ascii.Bar(r.PredictedSpeedup/scale, 30), r.PredictedEfficiency)
	fmt.Fprintf(&sb, "         observed  %6.2f |%s|  efficiency %.2f\n",
		r.ObservedSpeedup, ascii.Bar(r.ObservedSpeedup/scale, 30), r.ObservedEfficiency)
	if r.EffectiveProcessors > 0 {
		fmt.Fprintf(&sb, "         effective processors %.1f of %d\n", r.EffectiveProcessors, r.Processors)
	}

	status := "OK"
	if r.DriftAlert {
		status = "ALERT: observed speedup diverges from the analytical model"
	}
	fmt.Fprintf(&sb, "drift    %.3f (smoothed %.3f)   [%s]\n", r.DriftScore, r.DriftSmoothed, status)

	if len(r.Workers) > 0 {
		sb.WriteString("\nworkers  (decayed T_F, x fleet median)\n")
		maxTF := 0.0
		for _, w := range r.Workers {
			if w.TFDecayed > maxTF {
				maxTF = w.TFDecayed
			}
		}
		if maxTF == 0 {
			maxTF = 1
		}
		for _, w := range r.Workers {
			mark := ""
			if w.Straggler {
				mark = "  STRAGGLER"
			}
			fmt.Fprintf(&sb, "  %4d  %9s |%s| x%.1f%s\n",
				w.Worker, fmtSec(w.TFDecayed), ascii.Bar(w.TFDecayed/maxTF, 24), w.Ratio, mark)
		}
		if n := len(r.Stragglers); n > 0 {
			fmt.Fprintf(&sb, "  %d straggler(s) flagged\n", n)
		}
	}

	if q := r.Quality; q != nil {
		status := "OK"
		switch {
		case q.Stalled && q.Regressed:
			status = "ALERT: search stalled; quality regressed after restart"
		case q.Stalled:
			status = "ALERT: search stalled"
		case q.Regressed:
			status = "ALERT: quality regressed after restart"
		}
		fmt.Fprintf(&sb, "\nquality  hv=%.4f  ε-progress=%d  rate=%.2f/s (peak %.2f)  restarts=%d   [%s]\n",
			q.Hypervolume, q.EpsProgress, q.EpsRateSmoothed, q.EpsRatePeak, q.Restarts, status)
	}
	return sb.String()
}

// fetchQuality pulls the sampler's /debug/quality document from a live
// master. Masters running without -quality-* return 404 or an empty
// report; callers treat any error as "no pane".
func fetchQuality(addr string) (*borgmoea.QualityReport, error) {
	var qr borgmoea.QualityReport
	url, err := getJSON(addr, "/debug/quality", &qr)
	if err != nil {
		return nil, err
	}
	if qr.Latest == nil {
		return nil, fmt.Errorf("%s: no quality samples yet", url)
	}
	return &qr, nil
}

// renderQualityPane draws the search-quality pane: the hypervolume
// trajectory over the sampler's history window and the live adaptive
// operator mix. The stall/regression verdict itself lives on the
// quality line render emits from the advisor report.
func renderQualityPane(qr *borgmoea.QualityReport) string {
	var sb strings.Builder
	if len(qr.History) >= 2 {
		fmt.Fprintf(&sb, "\nhypervolume vs evaluations (last %d samples)\n%s",
			len(qr.History), ascii.Scatter(hvPoints(qr.History), 56, 8))
	}
	last := qr.Latest
	if rows := operatorRows(qr.Operators, last.OperatorProbs, 30); rows != "" {
		fmt.Fprintf(&sb, "\noperators (tournament size %d, archive %d / pop %d, spread %.3f)\n%s",
			last.TournamentSize, last.ArchiveSize, last.PopulationSize, last.FrontSpread, rows)
	}
	return sb.String()
}

// fmtSec renders a duration in seconds with an engineering unit.
func fmtSec(s float64) string {
	switch {
	case s == 0:
		return "0s"
	case s < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.1fm", s/60)
	}
}
