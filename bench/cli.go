package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// Main is the borgbench command: args are the command-line arguments
// after the program name. It returns an error when the run could not
// complete, an output check failed, or a comparison found a metric
// worse than its bound allows.
//
//	borgbench -seed 1 -out run.json    every workload, Reps reps each, plus ladder and traced pass
//	borgbench -quick                   the same at 1/20 size with one rep (smoke)
//	borgbench -selfcheck               two interleaved sets of this binary, judged against the bounds
//	borgbench -compare old.json new.json
//	borgbench --workload W --seed N --seconds S --trace 0|1
//	                                   one workload for S seconds; the last line is the result JSON
func Main(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("borgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		child     = fs.String("child", "", "internal: run one rep of the named workload (or the ladder) in this process")
		traced    = fs.Bool("traced", false, "internal: attach the tracing hooks to the child's measured run")
		scale     = fs.Uint64("scale", 1, "internal: divide every evaluation and iteration count by this")
		seed      = fs.Uint64("seed", 1, "workload seed")
		out       = fs.String("out", "", "write the report as JSON to this file")
		quick     = fs.Bool("quick", false, "smoke run: 1/20 size, one rep")
		selfcheck = fs.Bool("selfcheck", false, "A/A check: run two interleaved sets and compare them against the bounds")
		compare   = fs.Bool("compare", false, "compare two report files: -compare old.json new.json")
		workload  = fs.String("workload", "", "run only this workload and print its result JSON as the last line")
		seconds   = fs.Int("seconds", 24, "with -workload: the time to fill with whole cycles of reps")
		trace     = fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics (ladder + traced pass), 0 the end-to-end ones")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale == 0 {
		return fmt.Errorf("-scale must be positive")
	}

	switch {
	case *child == LadderName:
		ladder, err := Ladder(int(*scale))
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(ladder)
	case *child != "":
		w, ok := FindWorkload(*child)
		if !ok {
			return fmt.Errorf("unknown workload %q", *child)
		}
		spawned := time.Now()
		if ns, err := strconv.ParseInt(os.Getenv(SpawnEnv), 10, 64); err == nil {
			spawned = time.Unix(0, ns)
		}
		return json.NewEncoder(stdout).Encode(RunRep(w, *seed, *scale, *traced, spawned))
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		base, err := ReadReport(fs.Arg(0))
		if err != nil {
			return err
		}
		cand, err := ReadReport(fs.Arg(1))
		if err != nil {
			return err
		}
		if PrintRows(stdout, Compare(base, cand)) {
			return fmt.Errorf("at least one metric is worse than its bound allows")
		}
		return nil
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	o := Options{Workloads: Workloads, Seed: *seed, Reps: Reps, Scale: *scale, Trace: true, Exe: exe, Log: stderr}
	if *quick {
		o.Scale, o.Reps = 20, 1
	}
	if *workload != "" {
		w, ok := FindWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		o.Workloads = []Workload{w}
		o.Trace = *trace != 0
		o.Budget = time.Duration(*seconds) * time.Second
	}

	if *selfcheck {
		o.Trace = false
		a, b, err := SelfCheck(o)
		if err != nil {
			return err
		}
		rows := Compare(a, b)
		PrintRows(stdout, rows)
		if failed := a.Failed() + b.Failed(); failed > 0 {
			return fmt.Errorf("%d operations failed their output checks", failed)
		}
		for _, r := range rows {
			if r.Delta > r.Metric.Bound || r.Delta < -r.Metric.Bound {
				return fmt.Errorf("%s %s differs by %+.1f%% between two sets of the same binary (bound %.0f%%)",
					r.Workload, r.Metric.Name, 100*r.Delta, 100*r.Metric.Bound)
			}
		}
		return nil
	}

	rpt, err := Run(o)
	if err != nil {
		return err
	}
	rpt.Print(stdout)
	if *out != "" {
		if err := rpt.WriteFile(*out); err != nil {
			return err
		}
	}
	if *workload != "" {
		// The one-workload result line: last on standard output.
		if err := json.NewEncoder(stdout).Encode(rpt.Workloads[0].ResultLine(*trace != 0)); err != nil {
			return err
		}
	}
	if failed := rpt.Failed(); failed > 0 {
		return fmt.Errorf("%d operations failed their output checks", failed)
	}
	return nil
}
