package bench

import (
	"fmt"
	"runtime"
	"time"
)

// Rep is the result of one rep: one fresh process that sets up, warms
// up, does one measured run of fixed work and checks its output.
type Rep struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced,omitempty"`
	// Attempted is the evaluations requested; Failed those not accepted
	// by the end of the run — or all of them when an output check fails.
	Attempted uint64   `json:"ops_attempted"`
	Failed    uint64   `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest fingerprints the final archive(s).
	Digest string `json:"digest"`
	// Metrics holds this rep's end-to-end values except job_p50_ms,
	// which is the median of UnitMs: the latency of each unit of work.
	Metrics map[string]float64 `json:"metrics"`
	UnitMs  []float64          `json:"unit_ms"`
	// Layers holds the counts every rep reports and, on a traced rep,
	// the raw per-layer numbers of trace.go.
	Layers map[string]float64 `json:"layers"`
}

// RunRep executes one rep of w in this process. spawned is when the
// driver started the process: set-up time counts from there. scale
// divides the workload's evaluation counts (1 for a real run).
func RunRep(w Workload, seed uint64, scale uint64, trace bool, spawned time.Time) (rep Rep) {
	rep = Rep{Workload: w.Name, Seed: seed, Traced: trace, Metrics: map[string]float64{}, Layers: map[string]float64{}}
	n, nWarm := w.N/scale, w.NWarm/scale
	fail := func(err error) Rep {
		rep.Failures = append(rep.Failures, err.Error())
		if rep.Attempted == 0 {
			rep.Attempted = n
		}
		rep.Failed = rep.Attempted
		return rep
	}

	calib0 := calibNs()
	steal0, total0 := cpuTicks()

	// Set-up: reference front, the workload's listeners and workers, a
	// complete warm-up run through the same entry point, one GC.
	var tr *traced
	if trace {
		tr = newTraced()
	}
	inst, err := w.open(seed, tr)
	if err != nil {
		return fail(err)
	}
	defer inst.close()
	warm, err := inst.run(nWarm, nil)
	if err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	ref, err := newReference(warm.problem)
	if err != nil {
		return fail(err)
	}
	runtime.GC()
	tr.mark()
	rep.Metrics[SetupS] = time.Since(spawned).Seconds()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	out, err := inst.run(n, tr)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return fail(err)
	}

	// Timing has stopped: score and check the output.
	rep.Attempted = out.attempted
	rep.UnitMs = out.unitMs
	rep.Digest = digest(out.archives, out.exact)
	evals := float64(out.evals)
	rep.Metrics[EvalsPerS] = evals / out.wallS
	rep.Metrics[CPUUsPerEval] = 1e6 * cpu / evals
	hv := 0.0
	for i, a := range out.archives {
		if err := checkArchive(a); err != nil {
			out.failf("archive %d: %v", i, err)
		}
		hv += ref.hvNorm(a) / float64(len(out.archives))
	}
	rep.Metrics[HVNorm] = hv
	if floor := w.HVFloor; scale == 1 && hv < floor {
		out.failf("hv_norm %.4f below the floor %.2f", hv, floor)
	}
	if out.evals > out.attempted {
		out.failf("accepted %d evaluations of %d requested", out.evals, out.attempted)
	} else {
		rep.Failed = out.attempted - out.evals
	}

	for k, v := range out.counts {
		rep.Layers[k] = v
	}
	rep.Layers["runtime.allocs_per_eval"] = float64(ms1.Mallocs-ms0.Mallocs) / evals
	rep.Layers["runtime.alloc_bytes_per_eval"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / evals
	rep.Layers["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	rep.Layers["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	if tr != nil {
		layers, err := tr.layers(out.evals)
		if err != nil {
			out.failf("traced pass: %v", err)
		}
		for k, v := range layers {
			rep.Layers[k] = v
		}
	}

	steal1, total1 := cpuTicks()
	rep.Layers["env.steal_pct"] = stealPct(steal0, total0, steal1, total1)
	rep.Layers["env.calib_ns"] = calib0
	rep.Layers["env.calib_after_ns"] = calibNs()
	rep.Metrics[PeakRSSMB] = peakRSSMB()

	if len(out.failures) > 0 {
		rep.Failures = out.failures
		rep.Failed = rep.Attempted
	}
	return rep
}
