package parallel

import "borgmoea/internal/master"

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
)
