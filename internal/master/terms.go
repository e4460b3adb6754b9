package master

import (
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// TermsConfig names where one master's timing samples go and how its
// T_A and T_C are charged. Every field is optional; a nil sink costs a
// nil check.
type TermsConfig struct {
	// Meters supplies the T_A, T_F, T_C and queue-wait histograms; its
	// counters are the Core's and are not touched here.
	Meters Meters
	// Advisor receives every sample for its live model fit.
	Advisor *advisor.Advisor
	// Trace receives every sample that belongs to one evaluation.
	Trace *obs.Collector
	// Capture keeps every T_A and T_F sample in the tallies, for
	// distribution fitting.
	Capture bool
	// TA, when set, charges each critical section a draw from it instead
	// of the clock's advance across it (virtual-time drivers only). TC is
	// what Send and Recv draw a message's T_C from; a master that
	// measures its sends uses Sent and leaves it nil. Both draw from Rng.
	TA, TC stats.Distribution
	Rng    *rng.Source
}

// Tally is one term's run total: what a driver's Result reports as its
// mean and raw samples.
type Tally struct {
	Sum float64
	N   uint64
	// Samples holds every sample in observation order when the meter
	// captures (T_A and T_F only).
	Samples []float64
}

func (t *Tally) add(sec float64, capture bool) {
	t.Sum += sec
	t.N++
	if capture {
		t.Samples = append(t.Samples, sec)
	}
}

// Merge adds another tally's totals and samples to t.
func (t *Tally) Merge(o Tally) {
	t.Sum += o.Sum
	t.N += o.N
	t.Samples = append(t.Samples, o.Samples...)
}

// Mean returns Sum/N, or 0 before the first sample.
func (t *Tally) Mean() float64 {
	if t.N == 0 {
		return 0
	}
	return t.Sum / float64(t.N)
}

// Terms is the one meter for the paper's timing terms: T_A (a master
// critical section), T_F (one evaluation), T_C (one message, sent or
// received) and the queue wait of a result the master has not taken
// yet. A master loop reports each sample once, with the evaluation it
// belongs to, and the meter hands it to every sink the run configured:
// the tallies a Result reads, the shared histograms, the advisor and
// the trace collector.
//
// A Terms serves one master and is not safe for concurrent use; its
// sinks are.
type Terms struct {
	TA, TF, TC Tally

	cfg   TermsConfig
	clock func() float64
	start float64 // the clock at the open section's Enter
	item  uint64  // the evaluation the next accept folds in
}

// NewTerms returns a meter over cfg's sinks whose T_A is clock's
// advance across a critical section, in seconds. That is the one T_A
// source of a transport: a socket master passes Wall, a virtual-time
// master its Borg's Cost, so the time it charges is the work the seed
// fixes. A set TermsConfig.TA replaces the clock with a draw.
func NewTerms(clock func() float64, cfg TermsConfig) *Terms {
	return &Terms{cfg: cfg, clock: clock}
}

// wallEpoch anchors Wall.
var wallEpoch = time.Now()

// Wall is the socket masters' clock: seconds of monotonic wall-clock
// time since the process started.
func Wall() float64 { return time.Since(wallEpoch).Seconds() }

// Enter opens a master critical section.
func (t *Terms) Enter() {
	if t.cfg.TA == nil {
		t.start = t.clock()
	}
}

// Leave closes the section Enter opened and returns its T_A: a draw
// when TermsConfig.TA is set, else the clock's advance since Enter. An
// accept's T_A also lands on the trace of the evaluation it folded in
// (the one the Core's tracer last saw accepted; see Tracer).
func (t *Terms) Leave(accept bool) float64 {
	var ta float64
	if t.cfg.TA != nil {
		ta = t.cfg.TA.Sample(t.cfg.Rng)
	} else {
		ta = t.clock() - t.start
	}
	t.TA.add(ta, t.cfg.Capture)
	t.cfg.Meters.TA.Observe(ta)
	t.cfg.Advisor.ObserveTA(ta)
	if accept {
		t.cfg.Trace.ObserveTA(t.item, ta)
	}
	return ta
}

// Bracket returns alg with every call metered between Enter and Leave.
// charge, when set, receives each section's T_A — the virtual-time
// drivers hold the master for it.
func (t *Terms) Bracket(alg Algorithm, charge func(ta float64, accept bool)) *Bracket {
	return &Bracket{Algorithm: alg, Enter: t.Enter, Leave: func(accept bool) {
		ta := t.Leave(accept)
		if charge != nil {
			charge(ta, accept)
		}
	}}
}

// Tracer returns the protocol tracer to hand the Core (Config.Tracer):
// the trace collector, plus the hook that tells the meter which
// evaluation an accept folds in. It is nil without a collector.
func (t *Terms) Tracer() obs.ProtocolTracer {
	if t.cfg.Trace == nil {
		return nil
	}
	return termsTracer{t.cfg.Trace, t}
}

type termsTracer struct {
	*obs.Collector
	t *Terms
}

// TraceResult runs just before the Core folds an accepted result in.
func (tt termsTracer) TraceResult(worker int, item uint64, at float64, accepted bool) {
	if accepted {
		tt.t.item = item
	}
	tt.Collector.TraceResult(worker, item, at, accepted)
}

// Evaluated records one evaluation's T_F, attributed to the worker that
// ran it. item may be nil (a synchronous master's own evaluation).
func (t *Terms) Evaluated(worker int, item *Item, sec float64) {
	t.TF.add(sec, t.cfg.Capture)
	t.cfg.Advisor.ObserveTF(worker, sec)
	t.cfg.Meters.TF.Observe(sec)
	if item != nil {
		t.cfg.Trace.ObserveTF(item.ID, sec)
	}
}

// Send draws the T_C of a message to a worker, records it and returns
// it. item is the evaluation the message grants, or nil.
func (t *Terms) Send(item *Item) float64 {
	tc := t.cfg.TC.Sample(t.cfg.Rng)
	t.Sent(item, tc)
	return tc
}

// Sent records a measured T_C of a message to a worker.
func (t *Terms) Sent(item *Item, sec float64) {
	t.tc(sec)
	if item != nil {
		t.cfg.Trace.ObserveTCSend(item.ID, sec)
	}
}

// Recv draws the T_C of a message from a worker, records it and returns
// it. item is the evaluation the message returns, or nil.
func (t *Terms) Recv(item *Item) float64 {
	tc := t.cfg.TC.Sample(t.cfg.Rng)
	t.tc(tc)
	if item != nil {
		t.cfg.Trace.ObserveTCRecv(item.ID, tc)
	}
	return tc
}

func (t *Terms) tc(sec float64) {
	t.TC.add(sec, false)
	t.cfg.Meters.TC.Observe(sec)
	t.cfg.Advisor.ObserveTC(sec)
}

// Queued records how long a message from a worker waited before the
// master took it. item is the evaluation it returns, or nil.
func (t *Terms) Queued(item *Item, sec float64) {
	t.cfg.Advisor.ObserveQueueWait(sec)
	t.cfg.Meters.QueueWait.Observe(sec)
	if item != nil {
		t.cfg.Trace.ObserveQueueWait(item.ID, sec)
	}
}
