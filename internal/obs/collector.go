package obs

import (
	"sort"
	"sync"
)

// ProtocolTracer receives the master protocol's trace hooks. The
// master core calls these with the causing BMEL event's timestamp, so
// the identical calls replay from a recorded event log. They only
// record: every span is built later, in the master, by
// Collector.Forest, so nothing a hook computes travels to a worker or
// a peer island. Built from builtin types only: internal/master
// implements the caller side without this package importing it.
type ProtocolTracer interface {
	// TraceGrant opens the evaluation's span at grant time.
	TraceGrant(worker int, item uint64, at float64)
	// TraceResult closes the evaluation. accepted=false marks a
	// duplicate/stale result whose lease was already gone.
	TraceResult(worker int, item uint64, at float64, accepted bool)
	// TraceExpire marks a lease expiry; expired traces are always
	// emitted regardless of the sampling rate.
	TraceExpire(worker int, item uint64, at float64)
	// TraceResubmit links a resubmitted clone to its parent, so the
	// clone inherits the parent's trace id (one lineage, one trace).
	TraceResubmit(parent, child uint64)
	// TraceMigrant records an incoming cross-island migrant applied at
	// migration epoch.
	TraceMigrant(source int, epoch uint64, at float64)
}

// DefaultSpanLimit bounds the per-run trace state (tracked items);
// beyond it new evaluations are dropped and counted.
const DefaultSpanLimit = 1 << 20

// CollectorConfig configures a Collector.
type CollectorConfig struct {
	RunID uint64  // salts trace ids; use the run seed (per island: seed^island)
	Rate  float64 // head-based sampling rate in [0,1]
	Limit int     // max tracked items (0 = DefaultSpanLimit)
}

// traceItem is one evaluation's accumulated state. Protocol hooks
// (grant/result/expire/resubmit, stamped with the causing event's
// time) and driver observations (measured durations) merge here
// commutatively, so the state does not depend on their arrival order.
type traceItem struct {
	worker   int
	root     uint64 // lineage root item id; trace id derives from it
	grantAt  float64
	endAt    float64 // result time, or expiry time
	granted  bool
	done     bool
	accepted bool
	expired  bool

	tcs, tcr, wait, tf, ta                float64
	hasTCS, hasTCR, hasWait, hasTF, hasTA bool
}

type traceMigrant struct {
	source int
	at     float64
}

// Collector assembles per-evaluation spans from two feeds: the master
// core's protocol hooks (it implements ProtocolTracer) and the
// drivers' measured model-term durations (ObserveTF/TCSend/…). It is
// safe for concurrent use and all methods no-op on a nil receiver.
//
// The emission decision — head-sampled by rate, forced for lease
// expiries and advisor-flagged straggler workers — is taken at
// Forest() assembly time, not at record time, so every evaluation
// contributes to attribution while only the selected traces are
// exported.
type Collector struct {
	mu      sync.Mutex
	runID   uint64
	rate    float64
	limit   int
	items   map[uint64]*traceItem
	mig     map[uint64]traceMigrant // keyed by migration epoch
	emig    map[uint64]float64      // outgoing emigrant send times
	forced  map[int]bool
	dropped uint64
}

// NewCollector returns a Collector minting ids under cfg.RunID and
// sampling at cfg.Rate.
func NewCollector(cfg CollectorConfig) *Collector {
	limit := cfg.Limit
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Collector{
		runID:  cfg.RunID,
		rate:   cfg.Rate,
		limit:  limit,
		items:  make(map[uint64]*traceItem),
		mig:    make(map[uint64]traceMigrant),
		emig:   make(map[uint64]float64),
		forced: make(map[int]bool),
	}
}

// Dropped returns the number of evaluations lost to the state limit.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// item returns the evaluation's state, creating it under the limit.
// Callers hold c.mu.
func (c *Collector) item(id uint64) *traceItem {
	if e, ok := c.items[id]; ok {
		return e
	}
	if len(c.items) >= c.limit {
		c.dropped++
		return nil
	}
	e := &traceItem{root: id}
	c.items[id] = e
	return e
}

// traceID derives the item's trace id from its lineage root.
func (c *Collector) traceID(e *traceItem) uint64 {
	return MintTraceID(c.runID, e.root)
}

// TraceGrant implements ProtocolTracer.
func (c *Collector) TraceGrant(worker int, item uint64, at float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.item(item); e != nil {
		e.worker, e.grantAt, e.granted = worker, at, true
	}
}

// TraceResult implements ProtocolTracer.
func (c *Collector) TraceResult(worker int, item uint64, at float64, accepted bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.item(item)
	if e == nil || !accepted {
		return // stale/duplicate results don't close the span
	}
	e.done, e.accepted, e.endAt = true, true, at
}

// TraceExpire implements ProtocolTracer.
func (c *Collector) TraceExpire(worker int, item uint64, at float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.item(item); e != nil {
		e.expired, e.endAt = true, at
	}
}

// TraceResubmit implements ProtocolTracer: the clone joins its
// parent's lineage and therefore its trace.
func (c *Collector) TraceResubmit(parent, child uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	root := parent
	if p, ok := c.items[parent]; ok {
		root = p.root
	}
	if e := c.item(child); e != nil {
		e.root = root
	}
}

// TraceMigrant implements ProtocolTracer: an incoming migrant applied
// at the given migration epoch.
func (c *Collector) TraceMigrant(source int, epoch uint64, at float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mig[epoch] = traceMigrant{source: source, at: at}
}

// term names one measured model term of an evaluation.
type term uint8

const (
	termTCSend term = iota
	termTCRecv
	termWait
	termTF
	termTA
)

// observe stores one measured model-term duration for the evaluation.
func (c *Collector) observe(kind term, item uint64, d float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.item(item)
	if e == nil {
		return
	}
	switch kind {
	case termTCSend:
		e.tcs, e.hasTCS = d, true
	case termTCRecv:
		e.tcr, e.hasTCR = d, true
	case termWait:
		e.wait, e.hasWait = d, true
	case termTF:
		e.tf, e.hasTF = d, true
	case termTA:
		e.ta, e.hasTA = d, true
	}
}

// ObserveTCSend records the measured master→worker send time (T_C
// outbound) for the evaluation.
func (c *Collector) ObserveTCSend(item uint64, d float64) { c.observe(termTCSend, item, d) }

// ObserveTCRecv records the measured worker→master receive time (T_C
// inbound).
func (c *Collector) ObserveTCRecv(item uint64, d float64) { c.observe(termTCRecv, item, d) }

// ObserveQueueWait records the time the result sat queued before the
// master processed it.
func (c *Collector) ObserveQueueWait(item uint64, d float64) { c.observe(termWait, item, d) }

// ObserveTF records the worker's evaluation time (T_F).
func (c *Collector) ObserveTF(item uint64, d float64) { c.observe(termTF, item, d) }

// ObserveTA records the master's archive-insertion time (T_A).
func (c *Collector) ObserveTA(item uint64, d float64) { c.observe(termTA, item, d) }

// ForceWorker forces emission of every trace granted to worker w —
// the hook the drivers call for advisor-flagged stragglers.
func (c *Collector) ForceWorker(w int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forced[w] = true
}

// ObserveEmigrant records the outgoing emigrant of a migration epoch,
// sent at time at.
func (c *Collector) ObserveEmigrant(epoch uint64, at float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.emig[epoch] = at
}

// emigrantKey salts migration-epoch trace ids away from item ids.
func emigrantKey(epoch uint64) uint64 { return epoch ^ 0x6d696772616e7400 } // "migrant\0"

// Span is one node of the trace forest. An evaluation's root span
// ("eval") covers grant to archive-insert; its children are exactly
// the paper's model terms: "tc.send", "tf", "queue.wait", "tc.recv",
// "ta". Migration spans ("emigrant", "migrant") are instants whose
// Item is the migration epoch; a migrant's Worker is its source
// island, which is how WriteChromeForests joins the two.
type Span struct {
	TraceID  uint64  `json:"trace_id"`
	SpanID   uint64  `json:"span_id"`
	Parent   uint64  `json:"parent,omitempty"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Worker   int     `json:"worker"`
	Item     uint64  `json:"item,omitempty"`
	Status   string  `json:"status,omitempty"` // "", "expired", "open"
	Children []*Span `json:"children,omitempty"`
}

// Forest is a deterministic set of root spans: sorted by (start,
// trace id, span id), children in fixed model-term order — a pure
// function of the collector's accumulated state, so two collectors
// fed the same hooks serialize byte-identically.
type Forest []*Span

// Forest assembles and returns the emitted trace forest: traces that
// are head-sampled, expired, or granted to a forced worker, plus all
// migration spans.
func (c *Collector) Forest() Forest {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	var out Forest
	for id, e := range c.items {
		if !e.granted {
			continue
		}
		tid := c.traceID(e)
		if !(SampleHead(tid, c.rate) || e.expired || c.forced[e.worker]) {
			continue
		}
		out = append(out, c.buildEval(id, e, tid))
	}
	for epoch, m := range c.mig {
		tid := MintTraceID(c.runID, emigrantKey(epoch))
		out = append(out, &Span{
			TraceID: tid,
			SpanID:  mintSpanID(tid, epoch, roleMigrant),
			Name:    "migrant",
			Start:   m.at, End: m.at,
			Worker: m.source,
			Item:   epoch,
		})
	}
	for epoch, at := range c.emig {
		tid := MintTraceID(c.runID, emigrantKey(epoch))
		out = append(out, &Span{
			TraceID: tid,
			SpanID:  mintSpanID(tid, epoch, roleEmigrant),
			Name:    "emigrant",
			Start:   at, End: at,
			Item: epoch,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		return a.SpanID < b.SpanID
	})
	return out
}

// buildEval assembles one evaluation's span tree. Child spans are
// placed backwards from the result time r: …|tf|queue.wait|tc.recv|r,
// then ta after r; tc.send sits forward from the grant. A model term
// the driver never measured is simply omitted.
func (c *Collector) buildEval(id uint64, e *traceItem, tid uint64) *Span {
	root := &Span{
		TraceID: tid,
		SpanID:  mintSpanID(tid, id, roleEval),
		Name:    "eval",
		Start:   e.grantAt,
		Worker:  e.worker,
		Item:    id,
	}
	switch {
	case e.done:
		root.End = e.endAt
		if e.hasTA {
			root.End += e.ta
		}
	case e.expired:
		root.End, root.Status = e.endAt, "expired"
	default:
		root.End, root.Status = e.grantAt, "open"
	}
	child := func(name string, role uint64, start, dur float64) {
		root.Children = append(root.Children, &Span{
			TraceID: tid,
			SpanID:  mintSpanID(tid, id, role),
			Parent:  root.SpanID,
			Name:    name,
			Start:   start, End: start + dur,
			Worker: e.worker,
			Item:   id,
		})
	}
	if e.hasTCS {
		child("tc.send", roleTCSend, e.grantAt, e.tcs)
	}
	if e.done {
		r := e.endAt
		back := 0.0
		if e.hasTCR {
			back += e.tcr
		}
		if e.hasWait {
			back += e.wait
		}
		if e.hasTF {
			child("tf", roleTF, r-back-e.tf, e.tf)
		}
		if e.hasWait {
			child("queue.wait", roleWait, r-back, e.wait)
			back -= e.wait
		}
		if e.hasTCR {
			child("tc.recv", roleTCRecv, r-back, e.tcr)
		}
		if e.hasTA {
			child("ta", roleTA, r, e.ta)
		}
	}
	return root
}

// TermStats aggregates one model term across a forest.
type TermStats struct {
	N    int     `json:"n"`
	Sum  float64 `json:"sum"`
	Mean float64 `json:"mean"`
	// Share is the term's fraction of total traced wall-clock — the
	// empirical critical-path attribution of Eq. 2.
	Share float64 `json:"share"`
}

func (t *TermStats) add(d float64) { t.N++; t.Sum += d }

func (t *TermStats) finish(wall float64) {
	if t.N > 0 {
		t.Mean = t.Sum / float64(t.N)
	}
	if wall > 0 {
		t.Share = t.Sum / wall
	}
}

// Attribution is the per-term breakdown of where traced evaluations
// spent their wall-clock: the measured counterpart of the advisor's
// fitted T_F/T_C/T_A estimates.
type Attribution struct {
	Evals    int       `json:"evals"`
	Expired  int       `json:"expired"`
	Migrants int       `json:"migrants"`
	Wall     float64   `json:"wall"` // total root-span seconds
	TF       TermStats `json:"tf"`
	TCSend   TermStats `json:"tc_send"`
	TCRecv   TermStats `json:"tc_recv"`
	Wait     TermStats `json:"queue_wait"`
	TA       TermStats `json:"ta"`
	Other    float64   `json:"other"` // wall not covered by any term
}

// Attribution computes the per-term critical-path breakdown of the
// forest.
func (f Forest) Attribution() Attribution {
	var a Attribution
	for _, root := range f {
		switch root.Name {
		case "migrant":
			a.Migrants++
			continue
		case "emigrant":
			continue
		}
		a.Evals++
		if root.Status == "expired" {
			a.Expired++
		}
		a.Wall += root.End - root.Start
		for _, ch := range root.Children {
			d := ch.End - ch.Start
			switch ch.Name {
			case "tf":
				a.TF.add(d)
			case "tc.send":
				a.TCSend.add(d)
			case "tc.recv":
				a.TCRecv.add(d)
			case "queue.wait":
				a.Wait.add(d)
			case "ta":
				a.TA.add(d)
			}
		}
	}
	covered := a.TF.Sum + a.TCSend.Sum + a.TCRecv.Sum + a.Wait.Sum + a.TA.Sum
	if a.Wall > covered {
		a.Other = a.Wall - covered
	}
	for _, t := range []*TermStats{&a.TF, &a.TCSend, &a.TCRecv, &a.Wait, &a.TA} {
		t.finish(a.Wall)
	}
	return a
}
