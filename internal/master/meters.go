package master

import "borgmoea/internal/obs"

// Metric names shared by all drivers, so dashboards and the
// /debug/vars endpoint read the same keys regardless of transport.
// The protocol counters (evaluations, resubmissions, expiries,
// duplicates, hellos, joins, deaths, live) are recorded once, by the
// Core; the timing histograms once, by each master's Terms; the
// driver-level counters (generations, migrants) stay with the
// drivers.
const (
	MetricEvaluations = "master.evaluations"
	MetricResub       = "master.resubmissions"
	MetricLeaseExpiry = "master.lease_expiries"
	MetricDuplicates  = "master.duplicate_results"
	MetricHellos      = "master.worker_hellos"
	MetricJoins       = "master.worker_joins"
	MetricDeaths      = "master.worker_deaths"
	MetricWorkersLive = "master.workers_live"
	MetricTA          = "master.ta_seconds"
	MetricTC          = "master.tc_seconds"
	MetricQueueWait   = "master.queue_wait_seconds"
	MetricTF          = "worker.tf_seconds"
	MetricGenerations = "master.generations"
	MetricMigrants    = "master.migrants"
)

// Meters resolves every instrument the protocol records into exactly
// once (registry lookups take a lock), so the master loop pays one
// predictable nil check per record. The zero value — and the result of
// NewMeters on a nil registry — is fully inert.
type Meters struct {
	Evals, Resub, LeaseExp, Dups, Hellos *obs.Counter
	Joins, Deaths                        *obs.Counter
	Generations, Migrants                *obs.Counter
	Live                                 *obs.Gauge
	TA, TC, TF, QueueWait                *obs.Histogram
}

// NewMeters resolves the shared instrument set from reg (nil-safe).
func NewMeters(reg *obs.Registry) Meters {
	return Meters{
		Evals:       reg.Counter(MetricEvaluations),
		Resub:       reg.Counter(MetricResub),
		LeaseExp:    reg.Counter(MetricLeaseExpiry),
		Dups:        reg.Counter(MetricDuplicates),
		Hellos:      reg.Counter(MetricHellos),
		Joins:       reg.Counter(MetricJoins),
		Deaths:      reg.Counter(MetricDeaths),
		Generations: reg.Counter(MetricGenerations),
		Migrants:    reg.Counter(MetricMigrants),
		Live:        reg.Gauge(MetricWorkersLive),
		TA:          reg.Histogram(MetricTA, nil),
		TC:          reg.Histogram(MetricTC, nil),
		TF:          reg.Histogram(MetricTF, nil),
		QueueWait:   reg.Histogram(MetricQueueWait, nil),
	}
}
