package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"borgmoea"
	"borgmoea/internal/ascii"
	"borgmoea/internal/cli"
	"borgmoea/internal/master"
)

// interval is one busy span of a node.
type interval struct {
	start, end float64
	kind       byte // 'C', 'A', 'E'
}

// collector turns trace events into per-actor intervals.
type collector struct {
	open      map[string]map[string]float64 // actor -> kind -> start
	intervals map[string][]interval
	horizon   float64
}

func newCollector() *collector {
	return &collector{
		open:      map[string]map[string]float64{},
		intervals: map[string][]interval{},
	}
}

// spanKinds maps a simulation busy-interval kind to its chart letter.
var spanKinds = map[string]byte{"comm": 'C', "algo": 'A', "eval": 'E'}

// event folds one simulation trace event into intervals:
// "<kind>.start"/"<kind>.end" pairs open and close a busy span.
func (c *collector) event(ev borgmoea.SimTraceEvent) {
	if ev.At > c.horizon {
		c.horizon = ev.At
	}
	base, isStart := strings.CutSuffix(ev.Kind, ".start")
	if !isStart {
		var isEnd bool
		if base, isEnd = strings.CutSuffix(ev.Kind, ".end"); !isEnd {
			return
		}
	}
	if isStart {
		if c.open[ev.Actor] == nil {
			c.open[ev.Actor] = map[string]float64{}
		}
		c.open[ev.Actor][base] = ev.At
		return
	}
	start, ok := c.open[ev.Actor][base]
	if !ok {
		return
	}
	delete(c.open[ev.Actor], base)
	k, ok := spanKinds[base]
	if !ok {
		k = '?'
	}
	c.intervals[ev.Actor] = append(c.intervals[ev.Actor], interval{start: start, end: ev.At, kind: k})
}

// render draws the Gantt chart over [0, horizon] with the given width.
func (c *collector) render(width int) {
	actors := make([]string, 0, len(c.intervals))
	for a := range c.intervals {
		actors = append(actors, a)
	}
	sort.Slice(actors, func(i, j int) bool {
		// master first, then workers by number.
		if actors[i] == "master" {
			return true
		}
		if actors[j] == "master" {
			return false
		}
		return actors[i] < actors[j]
	})
	scale := float64(width) / c.horizon
	for _, a := range actors {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range c.intervals[a] {
			lo := int(iv.start * scale)
			hi := int(iv.end * scale)
			if hi == lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = iv.kind
			}
		}
		fmt.Printf("%-9s |%s|\n", a, row)
	}
}

// simulate runs one traced virtual-time master-slave run and draws its
// chart.
func simulate(name string, sync bool, p int, evals uint64, tf, tfcv float64, width int) error {
	col := newCollector()
	cfg := borgmoea.ParallelConfig{
		Problem: borgmoea.NewDTLZ2(5),
		Algorithm: borgmoea.Config{
			Epsilons: borgmoea.UniformEpsilons(5, 0.1),
		},
		Processors:  p,
		Evaluations: evals,
		// Exaggerated TA/TC so the master's work is visible at
		// figure scale, like the paper's schematic.
		TF:     borgmoea.GammaFromMeanCV(tf, tfcv),
		TA:     borgmoea.ConstantDist(tf / 4),
		TC:     borgmoea.ConstantDist(tf / 8),
		Seed:   3,
		Events: col.event,
	}
	var err error
	if sync {
		_, err = borgmoea.RunSync(cfg)
	} else {
		_, err = borgmoea.RunAsync(cfg)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s (P=%d: 1 master + %d workers; C=comm A=algorithm E=evaluation ·=idle)\n",
		name, p, p-1)
	col.render(width)
	fmt.Println()
	return nil
}

// collectProtocol reconstructs per-worker evaluation spans from the
// binary protocol log. The log records the master's consumed events
// only (joins, hellos, results, ticks), not grant times, so a worker's
// span is approximated as [previous result or join, this result] — the
// asynchronous protocol keeps workers saturated, making that span
// evaluation-dominated. Master activity shows as an 'A' instant per
// result (widened to one cell by the renderer).
func collectProtocol(log *borgmoea.ProtocolLog) *collector {
	col := newCollector()
	lastFree := map[int]float64{}
	for _, ev := range log.Events {
		if ev.At > col.horizon {
			col.horizon = ev.At
		}
		actor := fmt.Sprintf("worker%d", ev.Worker)
		switch ev.Kind {
		case master.EvJoin, master.EvHello:
			lastFree[ev.Worker] = ev.At
		case master.EvResult:
			if start, ok := lastFree[ev.Worker]; ok && ev.At > start {
				col.intervals[actor] = append(col.intervals[actor],
					interval{start: start, end: ev.At, kind: 'E'})
			}
			col.intervals["master"] = append(col.intervals["master"],
				interval{start: ev.At, end: ev.At, kind: 'A'})
			lastFree[ev.Worker] = ev.At
		case master.EvGone:
			delete(lastFree, ev.Worker)
		}
	}
	if log.Elapsed > col.horizon {
		col.horizon = log.Elapsed
	}
	return col
}

// renderQuality replays a recorded run (see cli.Replay), which
// regenerates each master's quality timeline, and draws each: the
// hypervolume trajectory over evaluations, one row per sample, and the
// final operator-probability mix as gauges.
func renderQuality(path string, width int) error {
	paths, _, qs, err := cli.Replay(path, 0, master.Spec{}, true)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for i, q := range qs {
		log := q.Log()
		if len(log.Samples) == 0 {
			return fmt.Errorf("%s: no quality samples (record them with -quality-every)", paths[i])
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s (%d samples; ref point %v; hypervolume exact ≤%d else %d-sample MC)\n",
			paths[i], len(log.Samples), log.Ref, log.MaxExact, log.MCSamples)
		fmt.Println()

		fmt.Printf("hypervolume vs evaluations\n%s\n", ascii.Scatter(hvPoints(log.Samples), width-16, 10))

		fmt.Printf("%5s %10s %9s %12s %12s %8s %5s %8s %5s %9s\n",
			"seq", "at", "evals", "hv", "Δhv", "εprog", "arch", "pop", "rst", "spread")
		prevHV := 0.0
		for _, s := range log.Samples {
			fmt.Printf("%5d %10.4f %9d %12.6f %+12.6f %8d %5d %8d %5d %9.4f\n",
				s.Seq, s.At, s.Evaluations, s.Hypervolume, s.Hypervolume-prevHV,
				s.EpsProgress, s.ArchiveSize, s.PopulationSize, s.Restarts, s.FrontSpread)
			prevHV = s.Hypervolume
		}

		last := log.Samples[len(log.Samples)-1]
		if rows := operatorRows(log.Operators, last.OperatorProbs, 40); rows != "" {
			fmt.Printf("\nfinal operator mix (tournament size %d)\n%s", last.TournamentSize, rows)
		}
	}
	return nil
}

// runTimeline is `borgview timeline`: it renders the paper's Figure 1
// and Figure 2: ASCII Gantt charts of the synchronous versus
// asynchronous master-slave MOEA with P = 4 (one master, three
// workers), showing where each node spends its time — communication
// (C), algorithm processing (A), function evaluation (E) and idle (·).
//
// Usage:
//
//	borgview timeline [-p 4] [-evals 12] [-width 110] [-tf 0.01] [-tfcv 0.3]
//
// The simulated charts are drawn from the DES engine's trace hook
// (ParallelConfig.Events). With -events the tool renders a recorded
// run instead: the binary protocol event log written by `borg
// -event-log` (BMEL format, internal/master):
//
//	borgview timeline -events run.bmel [-width 110]
//
// With -quality the tool replays a recorded run through a quality
// sampler instead — a BMEL log from `borg -event-log -quality-every`
// or a job's <id>.bmel, or a `borg -islands k -event-log` directory, one
// timeline per island — and renders what the live run sampled: a
// hypervolume curve over evaluations, per-sample quality rows and the
// final adaptive operator mix. The log's header names the run:
//
//	borgview timeline -quality run.bmel [-width 110]
//	borgview timeline -quality run/
func runTimeline(fs *flag.FlagSet, args []string) int {
	var (
		p       = fs.Int("p", 4, "processor count")
		evals   = fs.Uint64("evals", 12, "evaluations to draw")
		width   = fs.Int("width", 110, "chart width in characters")
		tf      = fs.Float64("tf", 0.01, "mean evaluation time")
		tfcv    = fs.Float64("tfcv", 0.3, "evaluation time variability (higher shows the sync barrier cost)")
		events  = fs.String("events", "", "render a recorded run from this binary event log (BMEL, from borg -event-log) instead of simulating")
		quality = fs.String("quality", "", "replay a recorded run (a BMEL log, or a borg -islands k -event-log directory) and render its quality timeline instead of simulating")
	)
	fs.Parse(args)
	if *width < 1 {
		fmt.Fprintf(os.Stderr, "borgview timeline: -width must be at least 1, got %d\n", *width)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *quality != "" {
		if err := renderQuality(*quality, *width); err != nil {
			return fail(err)
		}
		return 0
	}
	if *events != "" {
		log, err := cli.ReadFile(*events, borgmoea.ReadProtocolLog)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", *events, err))
		}
		col := collectProtocol(log)
		if len(col.intervals) == 0 {
			return fail(fmt.Errorf("%s: no renderable events", *events))
		}
		fmt.Printf("%s (%.3fs; C=comm A=algorithm E=evaluation ·=idle)\n", *events, col.horizon)
		col.render(*width)
		return 0
	}
	if err := simulate("Figure 1: synchronous master-slave MOEA", true, *p, *evals, *tf, *tfcv, *width); err != nil {
		return fail(err)
	}
	if err := simulate("Figure 2: asynchronous master-slave MOEA", false, *p, *evals, *tf, *tfcv, *width); err != nil {
		return fail(err)
	}
	return 0
}
