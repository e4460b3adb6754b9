package advisor

import (
	"sync"

	"borgmoea/internal/model"
)

// Federation rolls the advisors of a multi-master (island) run up into
// one federated scalability analysis. Each island master owns a plain
// Advisor fed by its own driver; the Federation only aggregates their
// Reports on demand, so it adds no contention to the hot paths.
//
// The headline comparison is the one ROADMAP item 1 asks for: the
// paper's Eq. 4 bound P_UB = T_F/(2·T_C + T_A) caps the processors a
// *single* master can use, and the federated roll-up shows the
// aggregate effective processor count of k masters sailing past it.
type Federation struct {
	mu       sync.Mutex
	advisors []*Advisor
}

// NewFederation returns an empty roll-up; islands join via Attach.
func NewFederation() *Federation { return &Federation{} }

// Attach adds one island's advisor to the roll-up. Island indices in
// reports follow attach order. Nil-safe on both sides.
func (f *Federation) Attach(a *Advisor) {
	if f == nil || a == nil {
		return
	}
	f.mu.Lock()
	f.advisors = append(f.advisors, a)
	f.mu.Unlock()
}

// Islands returns the number of attached island advisors.
func (f *Federation) Islands() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.advisors)
}

// Island returns island i's advisor (attach order), or nil when i is
// out of range.
func (f *Federation) Island(i int) *Advisor {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.advisors) {
		return nil
	}
	return f.advisors[i]
}

// FederationReport is the federated scalability analysis: per-island
// Reports plus the aggregate view against the single-master ceiling.
type FederationReport struct {
	Islands    int     `json:"islands"`
	Processors int     `json:"processors"`
	Budget     uint64  `json:"budget,omitempty"`
	Completed  uint64  `json:"completed"`
	Elapsed    float64 `json:"elapsed_seconds"`

	// Times is the federation-wide fit, pooled across islands weighted
	// by each island's T_F sample count.
	Times FittedTimes `json:"times"`

	// SingleMasterPUB is Eq. 4 evaluated on the pooled fit — the
	// processor ceiling one master would have with these timings.
	SingleMasterPUB float64 `json:"single_master_processor_upper_bound"`
	// AggregateObservedSpeedup is the federation's speedup over the
	// serial algorithm: the summed serial-equivalent work of all
	// islands divided by the federation's elapsed time (the slowest
	// island, since they run concurrently).
	AggregateObservedSpeedup float64 `json:"aggregate_observed_speedup"`
	// AggregateEffectiveProcessors sums the islands' effective
	// processor counts — the number of fully-utilized processors the
	// federation behaves as (Eq. 2 inverted on each island's observed
	// speedup).
	AggregateEffectiveProcessors float64 `json:"aggregate_effective_processors"`
	// AggregateEfficiency is AggregateObservedSpeedup over the total
	// processor count.
	AggregateEfficiency float64 `json:"aggregate_efficiency"`
	// CeilingRatio is AggregateEffectiveProcessors over
	// SingleMasterPUB: > 1 means the federation is doing useful work
	// past the single-master bound — the point of federating.
	CeilingRatio float64 `json:"ceiling_ratio"`

	Reports []Report `json:"island_reports"`
}

// Report computes the current federated analysis. Safe to call at any
// time, from any goroutine.
func (f *Federation) Report() FederationReport {
	if f == nil {
		return FederationReport{}
	}
	f.mu.Lock()
	advisors := append([]*Advisor(nil), f.advisors...)
	f.mu.Unlock()

	fr := FederationReport{Islands: len(advisors)}
	var (
		wSum                float64
		tfSum, taSum, tcSum float64
		p50Sum, p90Sum      float64
		p99Sum, cvSum       float64
		serialSum           float64
	)
	for _, a := range advisors {
		r := a.Report()
		fr.Reports = append(fr.Reports, r)
		fr.Processors += r.Processors
		fr.Budget += r.Budget
		fr.Completed += r.Completed
		if r.Elapsed > fr.Elapsed {
			fr.Elapsed = r.Elapsed
		}
		fr.AggregateEffectiveProcessors += r.EffectiveProcessors
		t := model.Times{TF: r.Times.TF, TA: r.Times.TA, TC: r.Times.TC}
		serialSum += model.SerialTime(r.Completed, t)
		if w := float64(r.Times.Samples); w > 0 {
			wSum += w
			fr.Times.Samples += r.Times.Samples
			tfSum += w * r.Times.TF
			taSum += w * r.Times.TA
			tcSum += w * r.Times.TC
			p50Sum += w * r.Times.TFP50
			p90Sum += w * r.Times.TFP90
			p99Sum += w * r.Times.TFP99
			cvSum += w * r.Times.TFCV
		}
	}
	if wSum > 0 {
		fr.Times.TF = tfSum / wSum
		fr.Times.TA = taSum / wSum
		fr.Times.TC = tcSum / wSum
		fr.Times.TFP50 = p50Sum / wSum
		fr.Times.TFP90 = p90Sum / wSum
		fr.Times.TFP99 = p99Sum / wSum
		fr.Times.TFCV = cvSum / wSum
	}
	pooled := model.Times{TF: fr.Times.TF, TA: fr.Times.TA, TC: fr.Times.TC}
	if 2*pooled.TC+pooled.TA > 0 {
		fr.SingleMasterPUB = sanitize(model.ProcessorUpperBound(pooled))
	}
	if fr.Elapsed > 0 {
		fr.AggregateObservedSpeedup = sanitize(serialSum / fr.Elapsed)
	}
	if fr.Processors > 0 {
		fr.AggregateEfficiency = sanitize(fr.AggregateObservedSpeedup / float64(fr.Processors))
	}
	if fr.SingleMasterPUB > 0 {
		fr.CeilingRatio = sanitize(fr.AggregateEffectiveProcessors / fr.SingleMasterPUB)
	}
	return fr
}
