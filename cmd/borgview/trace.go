package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"borgmoea"
	"borgmoea/internal/cli"
)

// runTrace is `borgview trace`: it turns a recorded run's distributed
// evaluation traces into the paper's critical-path attribution: where
// every traced evaluation spent its wall-clock, split into the model
// terms T_F (evaluation), T_C (send/receive transport) and T_A
// (algorithm critical section) plus master queue wait — the measured
// counterpart of the scalability advisor's fitted estimates, and the
// empirical inputs of the Eq. 4 ceiling P_UB = T_F/(2·T_C+T_A).
//
// It reconstructs the trace forest entirely offline from a BMEL event
// log plus the collector's trace sidecar; the result is byte-identical
// to what the live collector held (the repo's replayability invariant
// extended to traces).
//
// Usage:
//
//	borgview trace -dir run/                       # federation: island-<i>.bmel + island-<i>.trace
//	borgview trace -dir run/ -islands 4            # pin the island count instead of auto-detecting
//	borgview trace -log run.bmel -trace run.trace  # single master
//	borgview trace -dir run/ -chrome trace.json    # merged Chrome trace_event (chrome://tracing, Perfetto)
//	borgview trace -dir run/ -jsonl spans.jsonl    # canonical span-tree JSONL
func runTrace(fs *flag.FlagSet, args []string) int {
	var (
		dir       = fs.String("dir", "", "federation log directory holding island-<i>.bmel and island-<i>.trace (as written by borgfed -log-dir -trace-rate)")
		islands   = fs.Int("islands", 0, "island count in -dir (0 = auto-detect from the files present)")
		logPath   = fs.String("log", "", "single BMEL event log (paired with -trace)")
		tracePath = fs.String("trace", "", "single trace sidecar (paired with -log)")
		chromeOut = fs.String("chrome", "", "write the merged Chrome trace_event file to this path")
		jsonlOut  = fs.String("jsonl", "", "write the canonical span-tree JSONL to this path")
	)
	fs.Parse(args)
	logger := borgmoea.NewLogger(os.Stderr, false)
	fail := func(msg string, args ...any) int {
		logger.Error(msg, args...)
		return 1
	}

	var (
		labels  []string
		forests []borgmoea.TraceForest
	)
	switch {
	case *dir != "" && *logPath == "":
		k := *islands
		if k == 0 {
			if k = cli.IslandCount(*dir, "trace"); k == 0 {
				return fail("no island-<i>.trace sidecars found", "dir", *dir,
					"hint", "record them with: borgfed -log-dir ... -trace-rate 1")
			}
		}
		for i := 0; i < k; i++ {
			forest, err := loadForest(cli.IslandPath(*dir, i, "bmel"), cli.IslandPath(*dir, i, "trace"))
			if err != nil {
				return fail("reconstructing island traces", "island", i, "err", err)
			}
			labels = append(labels, fmt.Sprintf("island-%d", i))
			forests = append(forests, forest)
		}
	case *logPath != "" && *tracePath != "" && *dir == "":
		forest, err := loadForest(*logPath, *tracePath)
		if err != nil {
			return fail("reconstructing traces", "err", err)
		}
		// WriteChromeForests names the processes "<label> master" and
		// "<label> workers"; one forest is the run's, as cmd/borg labels it.
		labels = append(labels, "borg")
		forests = append(forests, forest)
	default:
		return fail("pass either -dir or both -log and -trace")
	}

	var total borgmoea.TraceAttribution
	for i, forest := range forests {
		att := forest.Attribution()
		if len(forests) > 1 {
			printAttribution(labels[i], att)
			mergeAttribution(&total, att)
		} else {
			total = att
		}
	}
	finishAttribution(&total)
	printAttribution("total", total)
	if pub, ok := empiricalPUB(total); ok {
		fmt.Printf("\nempirical ceiling: P_UB = tf.mean/(tc.send.mean+tc.recv.mean+ta.mean) = %.1f\n", pub)
	}

	if *jsonlOut != "" {
		if err := cli.WriteFile(*jsonlOut, func(w io.Writer) error {
			for _, forest := range forests {
				if err := forest.WriteJSONL(w); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fail("writing span JSONL", "err", err)
		}
		logger.Info("span trees written", "path", *jsonlOut)
	}
	if *chromeOut != "" {
		if err := cli.WriteFile(*chromeOut, func(w io.Writer) error {
			return borgmoea.WriteChromeTraceForests(w, labels, forests)
		}); err != nil {
			return fail("writing Chrome trace", "err", err)
		}
		logger.Info("Chrome trace written", "path", *chromeOut,
			"hint", "open in chrome://tracing or https://ui.perfetto.dev")
	}
	return 0
}

// loadForest reconstructs one master's trace forest from its BMEL
// event log and trace sidecar.
func loadForest(logPath, tracePath string) (borgmoea.TraceForest, error) {
	log, err := cli.ReadFile(logPath, borgmoea.ReadProtocolLog)
	if err != nil {
		return nil, err
	}
	sidecar, err := cli.ReadFile(tracePath, borgmoea.ReadTraceSidecar)
	if err != nil {
		return nil, err
	}
	return borgmoea.TracesFromProtocolLog(log, sidecar)
}

// mergeAttribution accumulates a into total; finishAttribution then
// recomputes the derived means and shares from the merged sums.
func mergeAttribution(total *borgmoea.TraceAttribution, a borgmoea.TraceAttribution) {
	total.Evals += a.Evals
	total.Expired += a.Expired
	total.Migrants += a.Migrants
	total.Wall += a.Wall
	total.Other += a.Other
	for _, t := range []struct{ dst, src *borgmoea.TraceTermStats }{
		{&total.TF, &a.TF}, {&total.TCSend, &a.TCSend}, {&total.TCRecv, &a.TCRecv},
		{&total.Wait, &a.Wait}, {&total.TA, &a.TA},
	} {
		t.dst.N += t.src.N
		t.dst.Sum += t.src.Sum
	}
}

func finishAttribution(a *borgmoea.TraceAttribution) {
	for _, t := range []*borgmoea.TraceTermStats{&a.TF, &a.TCSend, &a.TCRecv, &a.Wait, &a.TA} {
		if t.N > 0 {
			t.Mean = t.Sum / float64(t.N)
		}
		if a.Wall > 0 {
			t.Share = t.Sum / a.Wall
		}
	}
}

// empiricalPUB evaluates the paper's Eq. 4 ceiling from the measured
// term means; false when the traces lack a transport or algorithm
// term (an untraced or purely virtual run).
func empiricalPUB(a borgmoea.TraceAttribution) (float64, bool) {
	denom := a.TCSend.Mean + a.TCRecv.Mean + a.TA.Mean
	if a.TF.N == 0 || denom <= 0 {
		return 0, false
	}
	return a.TF.Mean / denom, true
}

func printAttribution(name string, a borgmoea.TraceAttribution) {
	fmt.Printf("%s: evals=%d expired=%d migrants=%d traced-wall=%.3fs\n",
		name, a.Evals, a.Expired, a.Migrants, a.Wall)
	fmt.Printf("  %-10s %7s %12s %12s %7s\n", "term", "n", "sum", "mean", "share")
	row := func(term string, t borgmoea.TraceTermStats) {
		if t.N == 0 {
			return
		}
		fmt.Printf("  %-10s %7d %11.3fs %11.6fs %6.1f%%\n", term, t.N, t.Sum, t.Mean, 100*t.Share)
	}
	row("tf", a.TF)
	row("tc.send", a.TCSend)
	row("tc.recv", a.TCRecv)
	row("queue.wait", a.Wait)
	row("ta", a.TA)
	if a.Other > 0 && a.Wall > 0 {
		fmt.Printf("  %-10s %7s %11.3fs %12s %6.1f%%\n", "other", "", a.Other, "", 100*a.Other/a.Wall)
	}
}
