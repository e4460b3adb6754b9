package parallel

import (
	"borgmoea/internal/des"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
)

// Metric name aliases: the canonical vocabulary lives in
// internal/master (the protocol counters are recorded by the shared
// state machine); these short forms keep the drivers and tests
// readable.
const (
	mEvaluations = master.MetricEvaluations
	mResub       = master.MetricResub
	mLeaseExpiry = master.MetricLeaseExpiry
	mDuplicates  = master.MetricDuplicates
	mHellos      = master.MetricHellos
	mJoins       = master.MetricJoins
	mDeaths      = master.MetricDeaths
	mWorkersLive = master.MetricWorkersLive
	mTA          = master.MetricTA
	mTC          = master.MetricTC
	mQueueWait   = master.MetricQueueWait
	mTF          = master.MetricTF
	mGenerations = master.MetricGenerations
	mMigrants    = master.MetricMigrants
	mCheckpoints = master.MetricCheckpoints
)

// installTrace wires the DES engine's trace stream into the run's
// event journal. Without one the engine keeps its nil hook and emits
// nothing.
func installTrace(eng *des.Engine, cfg *Config) {
	rec := cfg.Events
	if rec == nil {
		return
	}
	eng.SetTrace(func(ev des.TraceEvent) {
		rec.Record(obs.Event{TS: ev.At, Kind: ev.Kind, Actor: ev.Actor, Detail: ev.Detail})
	})
}
