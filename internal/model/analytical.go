// Package model implements the paper's two scalability models for the
// asynchronous master-slave Borg MOEA: the closed-form analytical
// model (Section III–IV.A, Eqs. 1–4, plus Cantú-Paz's synchronous
// model, Eq. 6) and the discrete-event simulation model (Section
// IV.B) that additionally captures resource contention at the master
// and stochastic timing.
package model

import "fmt"

// Times bundles the mean timing parameters of a configuration.
type Times struct {
	TF float64 // function evaluation time
	TA float64 // master algorithm time per result
	TC float64 // one-way communication time
}

// Validate rejects a negative T_F, T_A or T_C: the models would
// return a meaningless, possibly negative, time or bound for it.
func (t Times) Validate() error {
	if t.TF < 0 || t.TA < 0 || t.TC < 0 {
		return fmt.Errorf("model: negative time in %+v", t)
	}
	return nil
}

// SerialTime returns T_S = N·(T_F + T_A) (Eq. 1).
func SerialTime(n uint64, t Times) float64 {
	return float64(n) * (t.TF + t.TA)
}

// AsyncTime returns the analytical parallel runtime of the
// asynchronous master-slave MOEA (Eq. 2):
//
//	T_P = N/(P−1) · (T_F + 2·T_C + T_A)
//
// valid while the master is unsaturated (P ≤ ProcessorUpperBound); at
// larger P the analytical model underestimates T_P because it ignores
// queueing at the master — the paper's Table II quantifies exactly
// this error, and the simulation model repairs it.
func AsyncTime(n uint64, p int, t Times) float64 {
	if p < 2 {
		panic("model: AsyncTime requires P >= 2")
	}
	return float64(n) / float64(p-1) * (t.TF + 2*t.TC + t.TA)
}

// AsyncSpeedup returns S_P = T_S / T_P under the analytical model.
func AsyncSpeedup(p int, t Times) float64 {
	// N cancels.
	return float64(p-1) * (t.TF + t.TA) / (t.TF + 2*t.TC + t.TA)
}

// AsyncEfficiency returns E_P = T_S / (P·T_P) under the analytical
// model.
func AsyncEfficiency(p int, t Times) float64 {
	return AsyncSpeedup(p, t) / float64(p)
}

// ProcessorUpperBound returns the master-saturation processor count
// (Eq. 3):
//
//	P_UB = T_F / (2·T_C + T_A)
//
// the number of workers the master can keep fed; beyond it the master
// has no idle time left and adding processors only grows the queue.
func ProcessorUpperBound(t Times) float64 {
	d := 2*t.TC + t.TA
	if d == 0 {
		panic("model: ProcessorUpperBound with zero master cost")
	}
	return t.TF / d
}

// ProcessorLowerBound returns the minimum processor count for the
// parallel algorithm to beat the serial one (Eq. 4):
//
//	P_LB > 2 + 2·T_C/(T_F + T_A)
//
// so at least 3 processors are always required.
func ProcessorLowerBound(t Times) float64 {
	d := t.TF + t.TA
	if d == 0 {
		panic("model: ProcessorLowerBound with zero work time")
	}
	return 2 + 2*t.TC/d
}

// SyncTime returns Cantú-Paz's analytical runtime of the synchronous
// (generational) master-slave MOEA (Eq. 6):
//
//	T_P^sync = N/P · (T_F + P·T_C + T_A^sync),  T_A^sync ≈ P·T_A
//
// with one solution per node per generation (P is both processor
// count and population size).
func SyncTime(n uint64, p int, t Times) float64 {
	if p < 1 {
		panic("model: SyncTime requires P >= 1")
	}
	taSync := float64(p) * t.TA
	return float64(n) / float64(p) * (t.TF + float64(p)*t.TC + taSync)
}

// SyncSpeedup returns T_S / T_P^sync.
func SyncSpeedup(p int, t Times) float64 {
	return float64(p) * (t.TF + t.TA) / (t.TF + float64(p)*t.TC + float64(p)*t.TA)
}

// SyncEfficiency returns T_S / (P·T_P^sync).
func SyncEfficiency(p int, t Times) float64 {
	return SyncSpeedup(p, t) / float64(p)
}

// RelativeError returns |actual − predicted| / |actual|, the paper's
// Eq. 5 error measure.
func RelativeError(actual, predicted float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return 1
	}
	d := actual - predicted
	if d < 0 {
		d = -d
	}
	if actual < 0 {
		return d / -actual
	}
	return d / actual
}
