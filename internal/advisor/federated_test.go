package advisor

import (
	"math"
	"testing"
)

// seedIsland builds one island advisor with constant timings so the
// fitted estimates are exact.
func seedIsland(procs int, budget uint64, tf, ta, tc float64, samples int, completed uint64, elapsed float64) *Advisor {
	a := New(Config{})
	a.Configure(procs, budget)
	for i := 0; i < samples; i++ {
		a.ObserveTF(1+i%4, tf)
		a.ObserveTA(ta)
		a.ObserveTC(tc)
	}
	a.ObserveAccept(completed, elapsed)
	return a
}

func TestFederationReportAggregates(t *testing.T) {
	fed := NewFederation()
	a1 := seedIsland(5, 1000, 0.1, 0.01, 0.001, 10, 100, 2.0)
	a2 := seedIsland(5, 1000, 0.3, 0.01, 0.001, 10, 200, 4.0)
	fed.Attach(a1)
	fed.Attach(a2)
	fed.Attach(nil) // nil-safe, not counted

	if fed.Islands() != 2 {
		t.Fatalf("Islands() = %d, want 2", fed.Islands())
	}
	fr := fed.Report()
	if fr.Islands != 2 || len(fr.Reports) != 2 {
		t.Fatalf("report rolls up %d islands (%d reports), want 2", fr.Islands, len(fr.Reports))
	}
	if fr.Processors != 10 || fr.Budget != 2000 || fr.Completed != 300 {
		t.Fatalf("sums: P=%d budget=%d completed=%d, want 10/2000/300", fr.Processors, fr.Budget, fr.Completed)
	}
	if fr.Elapsed != 4.0 {
		t.Fatalf("Elapsed = %v, want the slowest island's 4.0", fr.Elapsed)
	}
	// Equal sample counts: the pooled fit is the plain average.
	if math.Abs(fr.Times.TF-0.2) > 1e-9 || math.Abs(fr.Times.TA-0.01) > 1e-9 || math.Abs(fr.Times.TC-0.001) > 1e-9 {
		t.Fatalf("pooled fit = %+v, want TF=0.2 TA=0.01 TC=0.001", fr.Times)
	}
	if fr.Times.Samples != 20 {
		t.Fatalf("pooled samples = %d, want 20", fr.Times.Samples)
	}
	// Eq. 4 on the pooled fit: 0.2/(2*0.001 + 0.01).
	if want := 0.2 / 0.012; math.Abs(fr.SingleMasterPUB-want) > 1e-9 {
		t.Fatalf("SingleMasterPUB = %v, want %v", fr.SingleMasterPUB, want)
	}
	// Serial-equivalent work over federation elapsed:
	// (100*(0.1+0.01) + 200*(0.3+0.01)) / 4.
	if want := (100*0.11 + 200*0.31) / 4.0; math.Abs(fr.AggregateObservedSpeedup-want) > 1e-6 {
		t.Fatalf("AggregateObservedSpeedup = %v, want %v", fr.AggregateObservedSpeedup, want)
	}
	if fr.AggregateEfficiency <= 0 || fr.AggregateEfficiency > 2 {
		t.Fatalf("AggregateEfficiency = %v out of range", fr.AggregateEfficiency)
	}
	sum := fr.Reports[0].EffectiveProcessors + fr.Reports[1].EffectiveProcessors
	if math.Abs(fr.AggregateEffectiveProcessors-sum) > 1e-9 {
		t.Fatalf("AggregateEffectiveProcessors = %v, want the island sum %v", fr.AggregateEffectiveProcessors, sum)
	}
	if fr.SingleMasterPUB > 0 && math.Abs(fr.CeilingRatio-fr.AggregateEffectiveProcessors/fr.SingleMasterPUB) > 1e-9 {
		t.Fatalf("CeilingRatio = %v inconsistent", fr.CeilingRatio)
	}
}

func TestFederationEmptyAndNil(t *testing.T) {
	var nilFed *Federation
	if nilFed.Islands() != 0 {
		t.Fatal("nil federation reports islands")
	}
	if fr := nilFed.Report(); fr.Islands != 0 {
		t.Fatal("nil federation report not empty")
	}
	fr := NewFederation().Report()
	if fr.Islands != 0 || fr.AggregateObservedSpeedup != 0 || fr.SingleMasterPUB != 0 {
		t.Fatalf("empty federation report not zero: %+v", fr)
	}
}
