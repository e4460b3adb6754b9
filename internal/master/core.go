package master

import (
	"fmt"

	"borgmoea/internal/core"
	"borgmoea/internal/obs"
)

// EventKind discriminates protocol events fed to the Core.
type EventKind uint8

const (
	// EvJoin: a worker registered (DES rank started, TCP handshake
	// completed). Re-joining a live identity is the reconnect path: the
	// old incarnation's work died with it.
	EvJoin EventKind = iota + 1
	// EvHello: a known worker re-registered after recovering from a
	// crash; whatever it held died with the crash.
	EvHello
	// EvResult: a worker returned the evaluated item with lease id
	// Item. The driver fills the solution's objectives before handing
	// the event over (see Lease).
	EvResult
	// EvTick: the driver's clock reached At with no message; expire
	// due leases and re-dispatch.
	EvTick
	// EvGone: the transport declared the worker dead for good.
	EvGone
	// EvReady: an external scheduler marked the worker available for
	// more work from this core (ScheduledOffspring policy). Ignored for
	// unknown, gone or still-leased workers.
	EvReady
	// EvLeave: an external scheduler gracefully withdrew the worker
	// from this core (typically to lend it to another run). A live
	// lease it still holds is presumed lost and resubmitted; the worker
	// can return later via EvJoin.
	EvLeave
	// EvMigrant: an ε-archive member arrived from a peer island in a
	// federation. Worker is the source island's id (a namespace disjoint
	// from this core's worker ids) and Item the migration epoch. The
	// core charges no evaluation and grants nothing — it invokes
	// OnMigrant, under which the driver folds the staged solution into
	// the algorithm — but recording the event in the BMEL log pins the
	// injection point in the accept stream, which is what lets a
	// federated run replay to the identical merged Result.
	EvMigrant
	// EvQuality: the driver's quality-sampling cadence fired. Item is
	// the sample sequence number and At the trigger clock. Like
	// EvMigrant this charges nothing and grants nothing — it invokes
	// OnQuality, under which the sampler snapshots the algorithm
	// state — but recording the trigger in the BMEL log pins
	// the sample point in the accept stream, which is what lets any
	// run's quality timeline replay byte-identically, even when the
	// cadence was wall-clock-driven.
	EvQuality
)

func (k EventKind) String() string {
	switch k {
	case EvJoin:
		return "join"
	case EvHello:
		return "hello"
	case EvResult:
		return "result"
	case EvTick:
		return "tick"
	case EvGone:
		return "gone"
	case EvReady:
		return "ready"
	case EvLeave:
		return "leave"
	case EvMigrant:
		return "migrant"
	case EvQuality:
		return "quality"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one protocol input. At is seconds on the driver's clock
// (virtual or wall); the Core uses it only to stamp lease deadlines
// and compare them against ticks, so feeding a recorded stream back
// reproduces expiries exactly.
type Event struct {
	Kind   EventKind
	Worker int
	Item   uint64
	At     float64
}

// ActionKind discriminates protocol outputs.
type ActionKind uint8

const (
	// ActGrant: send Item to Worker (a TagEvaluate message). The lease
	// is already booked; the driver only transmits.
	ActGrant ActionKind = iota + 1
	// ActStop: send Worker a TagStop.
	ActStop
	// ActComplete: the evaluation budget is reached. Emitted once,
	// before the stop actions, so drivers timestamp T_P first.
	ActComplete
)

// Action is one protocol output for the driver to execute, in order.
type Action struct {
	Kind   ActionKind
	Worker int
	Item   *Item
}

// Algorithm is the Core's view of the optimizer. *core.Borg is one as
// it stands (what replays use); live drivers put it in a Bracket to
// charge transport-appropriate T_A costs (DES holds, measured wall
// time, sampled distributions) around the calls — the Core only
// sequences them.
type Algorithm interface {
	// Suggest generates one offspring (seeding, and lazy dispatch).
	Suggest() *core.Solution
	// Accept folds an evaluated solution in (lazy policy).
	Accept(s *core.Solution)
	// AcceptSuggest folds s in and generates the next offspring in one
	// critical section — the paper's combined T_A (eager policy).
	AcceptSuggest(s *core.Solution) *core.Solution
}

// Policy selects when the Core generates fresh offspring.
type Policy uint8

const (
	// EagerOffspring generates the next offspring inside each accept
	// (one AcceptSuggest critical section, the paper's T_A) and grants
	// it straight back to the returning worker. Used by the DES,
	// realtime and island drivers.
	EagerOffspring Policy = iota
	// LazyOffspring generates offspring on demand at dispatch time,
	// bounded so live work chains never exceed the remaining budget.
	// Used by the distributed driver, whose worker pool is dynamic.
	LazyOffspring
	// ScheduledOffspring is LazyOffspring minus the assumption that a
	// worker returning a result wants more work: the worker parks (no
	// lease, not idle) until an external scheduler speaks for it with
	// EvReady (serve this run again) or EvLeave (lent elsewhere). The
	// multi-tenant job scheduler runs one such core per job and moves
	// fleet workers between them at result boundaries, so fair-share
	// decisions live outside the core yet stay in its event log —
	// recorded EvReady/EvLeave replay like any other event.
	ScheduledOffspring
)

// Config parameterizes a Core.
type Config struct {
	// Budget is N, the evaluation budget; the run completes at the
	// N-th accepted result.
	Budget uint64
	// LeaseTimeout bounds how long a dispatched evaluation may stay
	// outstanding before it is presumed lost and resubmitted; 0
	// disables expiry.
	LeaseTimeout float64
	// Policy selects eager or lazy offspring generation.
	Policy Policy
	// MaxProbes bounds last-resort grants to suspect workers per death
	// episode (0 = DefaultMaxProbes), so a run whose workers all died
	// permanently still terminates instead of probing forever.
	MaxProbes int
	// Alg is the optimizer adapter (required).
	Alg Algorithm
	// ReuseOnResubmit re-enqueues a lost lease's Item — same wrapper,
	// same Solution, fresh id — instead of deep-cloning the Solution.
	// Safe only when workers hold copies rather than references to
	// master memory (the wire transports, which deep-encode grants);
	// in-process transports share Solution pointers with workers and
	// must leave this off, or a straggler could scribble on a reissued
	// solution. Late results are discarded by lease id either way.
	ReuseOnResubmit bool
	// Meters receives the protocol counters; the zero value is inert.
	Meters Meters
	// Emit, when set, receives master-side protocol annotations
	// (currently "lease.expire" with a worker=…,id=… detail).
	Emit func(kind, detail string)
	// Log, when non-nil, records every event handled — the replay
	// stream. Nil-safe by construction.
	Log *Log
	// OnAccept runs after each accepted evaluation (checkpoint hooks,
	// migration), before completion is evaluated, with the new
	// completed count.
	OnAccept func(completed uint64)
	// OnAcceptFrom, when set, additionally reports which worker's
	// result was accepted and the event timestamp on the driver's
	// clock — the per-worker residual feed of the live scalability
	// advisor. It runs after OnAccept (and after completion may have
	// been decided), so it observes and never steers the protocol.
	OnAcceptFrom func(worker int, completed uint64, at float64)
	// OnMigrant runs under every EvMigrant with the source island and
	// migration epoch. Live federation drivers stage the decoded
	// migrant solution and inject it here; Replay looks the same epoch
	// up in the recorded migrant sidecar log — either way the
	// algorithm sees the injection at the identical point in the event
	// stream.
	OnMigrant func(source int, epoch uint64)
	// OnQuality runs under every EvQuality with the sample sequence
	// number and the trigger's clock stamp. Live drivers and Replay
	// both route their sampler's Sample call through this hook, which
	// is how a recorded quality timeline reconstructs byte-identically
	// offline.
	OnQuality func(seq uint64, at float64)
	// Tracer, when set, receives the distributed-tracing hooks: every
	// grant mints a span context (stamped on the Item, carried on the
	// wire), results/expiries close the span, resubmissions link the
	// clone's lineage, migrants record cross-island arrivals. The Core
	// calls it only with event data and timestamps it already logs, so
	// replaying the BMEL stream through the same tracer reproduces the
	// identical calls — tracing inherits the replay invariant for
	// free. Callers must pass a non-nil implementation or leave the
	// field nil (a typed-nil interface would defeat the nil check).
	Tracer obs.ProtocolTracer
}

// DefaultMaxProbes is the bounded number of last-resort sends to a
// presumed-dead worker per death episode.
const DefaultMaxProbes = 2

// Stats is the Core's protocol accounting, mirrored into the drivers'
// Result fields.
type Stats struct {
	// Completed counts accepted evaluations.
	Completed uint64
	// Resubmissions counts work re-enqueued after a presumed loss;
	// Lost counts the presumed losses themselves (currently equal).
	Resubmissions uint64
	Lost          uint64
	// Duplicates counts late results discarded because their lease had
	// already been reissued.
	Duplicates uint64
	// Expiries counts lease deadlines that passed.
	Expiries uint64
	// Hellos, Joins and Deaths count worker lifecycle events; Leaves
	// counts graceful scheduler withdrawals (EvLeave).
	Hellos uint64
	Joins  uint64
	Deaths uint64
	Leaves uint64
}

// Core is the master protocol state machine. It is single-threaded:
// Handle must not be called concurrently. It consumes no randomness
// and never reads a clock, so identical event streams produce
// identical decisions — the property record/replay and the
// cross-transport equivalence tests rest on.
type Core struct {
	cfg         Config
	reg         *Registry
	outstanding map[uint64]*lease
	heap        leaseHeap
	pending     []*Item
	nextID      uint64
	nextSeq     uint64
	busy        int
	stats       Stats
	done        bool
	acts        []Action

	// freeItems recycles the Item wrappers of accepted results, and
	// freeLeases the lease records of settled leases, so the
	// steady-state grant path allocates neither.
	freeItems  []*Item
	freeLeases []*lease
}

// NewCore returns a Core ready to Handle events. It stamps the log's
// metadata so a recorded stream carries everything Replay needs
// besides the problem and seed.
func NewCore(cfg Config) *Core {
	if cfg.MaxProbes == 0 {
		cfg.MaxProbes = DefaultMaxProbes
	}
	cfg.Log.setMeta(LogMeta{Policy: cfg.Policy, Budget: cfg.Budget, LeaseTimeout: cfg.LeaseTimeout})
	return &Core{
		cfg:         cfg,
		reg:         NewRegistry(),
		outstanding: make(map[uint64]*lease),
	}
}

// Handle applies one event and returns the actions it implies, in
// execution order. The returned slice is reused by the next Handle
// call; drivers must execute (or copy) it first. After completion
// Handle records nothing and returns nil.
func (c *Core) Handle(ev Event) []Action {
	if c.done {
		return nil
	}
	c.cfg.Log.record(ev)
	c.acts = c.acts[:0]
	switch ev.Kind {
	case EvJoin:
		c.join(ev)
	case EvHello:
		c.hello(ev)
	case EvResult:
		c.result(ev)
	case EvTick:
		c.expire(ev.At)
		c.dispatch(ev.At)
	case EvGone:
		if c.retire(ev.Worker) {
			c.dispatch(ev.At)
		}
	case EvReady:
		c.ready(ev)
	case EvLeave:
		c.leave(ev)
	case EvMigrant:
		c.migrant(ev)
	case EvQuality:
		c.quality(ev)
	}
	return c.acts
}

// Done reports whether the budget has been reached.
func (c *Core) Done() bool { return c.done }

// AttachLog swaps the Core's event log mid-run. Replay leaves the
// replayed Core logless (re-recording would duplicate the stream); a
// resuming driver attaches the original log — already holding the
// replayed prefix — so continued events append to the same stream and
// the file on disk stays a single coherent history.
func (c *Core) AttachLog(l *Log) {
	c.cfg.Log = l
	l.setMeta(LogMeta{Policy: c.cfg.Policy, Budget: c.cfg.Budget, LeaseTimeout: c.cfg.LeaseTimeout})
}

// LiveWorkers returns the ids of workers not marked gone, in join
// order. A driver resuming a replayed Core needs them: the transport
// those ids named died with the recorded run, so each must be declared
// gone (EvGone) before real workers rejoin — that resubmits any lease
// the crash stranded.
func (c *Core) LiveWorkers() []int {
	var out []int
	for _, id := range c.reg.Known() {
		if c.reg.State(id) != StateGone {
			out = append(out, id)
		}
	}
	return out
}

// Stats returns the protocol accounting so far.
func (c *Core) Stats() Stats { return c.stats }

// Completed returns the accepted-evaluation count.
func (c *Core) Completed() uint64 { return c.stats.Completed }

// Peak returns the maximum concurrent live worker count.
func (c *Core) Peak() int { return c.reg.Peak() }

// Outstanding returns the number of live leases.
func (c *Core) Outstanding() int { return c.busy }

// PendingLen returns the length of the resubmission/backlog queue.
func (c *Core) PendingLen() int { return len(c.pending) }

// NextDeadline returns the earliest live lease deadline, if any — the
// timeout a blocking driver should wait for before feeding an EvTick.
func (c *Core) NextDeadline() (float64, bool) {
	l, ok := c.heap.peek()
	if !ok {
		return 0, false
	}
	return l.deadline, true
}

// Lease looks up a live lease by id, returning the worker it was
// granted to and the item. Drivers use it before an EvResult to fill
// the solution's objectives (and meter T_F) only when the result will
// actually be accepted.
func (c *Core) Lease(id uint64) (worker int, item *Item, ok bool) {
	l, found := c.outstanding[id]
	if !found {
		return 0, nil, false
	}
	return l.worker, l.item, true
}

// --- event handlers -------------------------------------------------

func (c *Core) join(ev Event) {
	if w := c.reg.lookup(ev.Worker); w != nil && w.state != StateGone {
		// Reconnect-with-hello replacing a live incarnation: its work
		// died with the old connection.
		c.retire(ev.Worker)
	}
	c.reg.join(ev.Worker)
	c.stats.Joins++
	c.cfg.Meters.Joins.Inc()
	c.cfg.Meters.Live.Set(float64(c.reg.Live()))
	if c.cfg.Policy == EagerOffspring {
		// Seed the worker directly: one offspring per join, the DES
		// drivers' startup protocol.
		c.grant(ev.Worker, c.newItem(c.cfg.Alg.Suggest()), ev.At)
		return
	}
	c.reg.MarkIdle(ev.Worker)
	c.dispatch(ev.At)
}

func (c *Core) hello(ev Event) {
	c.stats.Hellos++
	c.cfg.Meters.Hellos.Inc()
	w := c.reg.lookup(ev.Worker)
	if w == nil {
		w = c.reg.join(ev.Worker)
	}
	// A recovered worker re-registered: whatever it held died with the
	// crash.
	if l := w.lease; l != nil && !l.done {
		c.lose(l)
	}
	c.reg.MarkIdle(ev.Worker)
	c.dispatch(ev.At)
}

func (c *Core) result(ev Event) {
	w := c.reg.lookup(ev.Worker)
	if w == nil {
		w = c.reg.join(ev.Worker)
	}
	l, known := c.outstanding[ev.Item]
	if !known || l.worker != ev.Worker {
		// Late result of an expired (already reissued) lease: discard,
		// but the sender proved alive. Under the scheduled policy the
		// worker parks instead — the scheduler speaks for it.
		c.stats.Duplicates++
		c.cfg.Meters.Dups.Inc()
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.TraceResult(ev.Worker, ev.Item, ev.At, false)
		}
		if c.cfg.Policy != ScheduledOffspring && w.state != StateBusy {
			c.reg.MarkIdle(ev.Worker)
		}
		c.dispatch(ev.At)
		return
	}
	item := l.item
	c.release(l)
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.TraceResult(ev.Worker, ev.Item, ev.At, true)
	}
	w.probes = 0
	if c.cfg.Policy == EagerOffspring {
		next := c.cfg.Alg.AcceptSuggest(item.S)
		c.recycleItem(item)
		c.accepted()
		c.acceptedFrom(ev)
		if c.done {
			return
		}
		// Fault-free, pending is empty and this reduces to "send next
		// to the returning worker" without touching the queue (the
		// append-then-pop would bleed slice capacity and re-allocate
		// every accept). With resubmitted clones queued, FIFO order
		// still rules: the fresh offspring goes to the back.
		item2 := c.newItem(next)
		if len(c.pending) > 0 {
			c.pending = append(c.pending, item2)
			item2 = c.pending[0]
			c.pending = c.pending[1:]
		}
		c.grant(ev.Worker, item2, ev.At)
		c.dispatch(ev.At)
		return
	}
	c.cfg.Alg.Accept(item.S)
	c.recycleItem(item)
	c.accepted()
	c.acceptedFrom(ev)
	if c.done {
		return
	}
	if c.cfg.Policy == ScheduledOffspring {
		// Park the returning worker: still registered, no lease, not
		// idle. It works again only when the scheduler says EvReady
		// (or serves another run after EvLeave).
		return
	}
	c.reg.MarkIdle(ev.Worker)
	c.dispatch(ev.At)
}

// ready grants parked capacity back to this run: the scheduler marked
// the worker available, so it becomes idle and dispatch may use it.
// Unknown, gone, or still-leased workers are ignored — the scheduler's
// view can lag the core's (a lease may have expired and been reissued
// to the same worker between the decision and the event).
func (c *Core) ready(ev Event) {
	w := c.reg.lookup(ev.Worker)
	if w == nil || w.state == StateGone {
		return
	}
	if l := w.lease; l != nil && !l.done {
		return
	}
	c.reg.MarkIdle(ev.Worker)
	c.dispatch(ev.At)
}

// leave is the scheduler's graceful counterpart of EvGone: the worker
// is withdrawn (lent to another run), any live lease it held is
// presumed lost and resubmitted, and a later EvJoin brings it back.
// Counted as a Leave, not a Death — the transport is fine.
func (c *Core) leave(ev Event) {
	w := c.reg.lookup(ev.Worker)
	if w == nil || w.state == StateGone {
		return
	}
	if l := w.lease; l != nil && !l.done {
		c.lose(l)
	}
	c.reg.markGone(ev.Worker)
	c.stats.Leaves++
	c.cfg.Meters.Live.Set(float64(c.reg.Live()))
	c.dispatch(ev.At)
}

// migrant folds a peer island's archive member in: no evaluation
// charged, no lease involved, no grant emitted — only the OnMigrant
// hook, whose side effect (injecting the staged solution into the
// algorithm) is the whole point of the event. The migrants meter
// counts sends and stays with the drivers, like generations.
func (c *Core) migrant(ev Event) {
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.TraceMigrant(ev.Worker, ev.Item, ev.At)
	}
	if c.cfg.OnMigrant != nil {
		c.cfg.OnMigrant(ev.Worker, ev.Item)
	}
}

// quality is EvQuality's handler: no evaluation charged, no lease, no
// grant — only the OnQuality hook, under which the driver's sampler
// snapshots the algorithm.
func (c *Core) quality(ev Event) {
	if c.cfg.OnQuality != nil {
		c.cfg.OnQuality(ev.Item, ev.At)
	}
}

// --- internals ------------------------------------------------------

func (c *Core) newItem(s *core.Solution) *Item {
	c.nextID++
	if n := len(c.freeItems); n > 0 {
		it := c.freeItems[n-1]
		c.freeItems[n-1] = nil
		c.freeItems = c.freeItems[:n-1]
		*it = Item{ID: c.nextID, S: s}
		return it
	}
	return &Item{ID: c.nextID, S: s}
}

// recycleItem returns an accepted result's wrapper to the pool. Only
// wrappers whose solution was just handed to the algorithm are
// recycled — every driver is done with the pointer once it feeds the
// EvResult. Wrappers abandoned by the clone-on-resubmit path are NOT
// recycled: an in-flight worker of an in-process transport may still
// write into them.
func (c *Core) recycleItem(it *Item) {
	*it = Item{}
	c.freeItems = append(c.freeItems, it)
}

func (c *Core) grant(worker int, item *Item, at float64) {
	w := c.reg.lookup(worker)
	if c.cfg.Tracer != nil {
		item.Trace = c.cfg.Tracer.TraceGrant(worker, item.ID, at)
	}
	c.nextSeq++
	var l *lease
	if n := len(c.freeLeases); n > 0 {
		l = c.freeLeases[n-1]
		c.freeLeases[n-1] = nil
		c.freeLeases = c.freeLeases[:n-1]
		*l = lease{item: item, worker: worker, seq: c.nextSeq, idx: -1}
	} else {
		l = &lease{item: item, worker: worker, seq: c.nextSeq, idx: -1}
	}
	w.lease = l
	w.state = StateBusy
	c.outstanding[item.ID] = l
	c.busy++
	if c.cfg.LeaseTimeout > 0 {
		l.deadline = at + c.cfg.LeaseTimeout
		c.heap.push(l)
	}
	c.acts = append(c.acts, Action{Kind: ActGrant, Worker: worker, Item: item})
}

func (c *Core) release(l *lease) {
	if l.done {
		return
	}
	l.done = true
	delete(c.outstanding, l.item.ID)
	if w := c.reg.lookup(l.worker); w != nil && w.lease == l {
		w.lease = nil
	}
	c.busy--
	if l.idx >= 0 {
		c.heap.remove(l)
	}
	// Off the heap and out of the tables, nothing else holds the lease
	// (callers capture item/worker before releasing): pool it.
	*l = lease{done: true, idx: -1}
	c.freeLeases = append(c.freeLeases, l)
}

// lose presumes a leased evaluation dead and re-enqueues a clone under
// a fresh id. Removing the old id from outstanding before the clone is
// granted is what makes double-accept impossible: at most one id per
// work chain is ever live.
func (c *Core) lose(l *lease) {
	if l.done {
		return
	}
	item := l.item
	c.release(l)
	c.stats.Lost++
	c.stats.Resubmissions++
	c.cfg.Meters.Resub.Inc()
	oldID := item.ID
	var clone *Item
	if c.cfg.ReuseOnResubmit {
		// Wire transports deep-encode grants, so the departed worker
		// holds a copy, never a reference into master memory: reissue
		// the same wrapper and Solution under a fresh id instead of
		// deep-cloning. A late original is keyed by the old lease id
		// and discarded as a duplicate before anything could write
		// into the reissued solution.
		c.nextID++
		item.ID = c.nextID
		item.Trace = obs.SpanContext{}
		item.ResubmitOf = oldID
		clone = item
	} else {
		clone = c.newItem(item.S.Clone())
		clone.ResubmitOf = oldID
	}
	if c.cfg.Tracer != nil {
		// Linked before the clone is granted, so the grant's minted
		// context already carries the lineage-root trace id.
		c.cfg.Tracer.TraceResubmit(oldID, clone.ID)
	}
	c.pending = append(c.pending, clone)
}

// retire records a terminal death (transport-declared). Reports
// whether the worker was alive.
func (c *Core) retire(worker int) bool {
	w := c.reg.lookup(worker)
	if w == nil || w.state == StateGone {
		return false
	}
	if l := w.lease; l != nil && !l.done {
		c.lose(l)
	}
	c.reg.markGone(worker)
	c.stats.Deaths++
	c.cfg.Meters.Deaths.Inc()
	c.cfg.Meters.Live.Set(float64(c.reg.Live()))
	return true
}

func (c *Core) accepted() {
	c.stats.Completed++
	c.cfg.Meters.Evals.Inc()
	if c.cfg.OnAccept != nil {
		c.cfg.OnAccept(c.stats.Completed)
	}
	if c.stats.Completed >= c.cfg.Budget {
		c.complete()
	}
}

// acceptedFrom reports the accepted result's worker and timestamp to
// the advisor hook, if any.
func (c *Core) acceptedFrom(ev Event) {
	if c.cfg.OnAcceptFrom != nil {
		c.cfg.OnAcceptFrom(ev.Worker, c.stats.Completed, ev.At)
	}
}

func (c *Core) complete() {
	c.done = true
	c.acts = append(c.acts, Action{Kind: ActComplete})
	// Stop every worker that might still be listening, in join order.
	// Suspects get one too (the transport may still deliver); gone
	// workers have no transport left.
	for _, id := range c.reg.Known() {
		if c.reg.State(id) != StateGone {
			c.acts = append(c.acts, Action{Kind: ActStop, Worker: id})
		}
	}
}

func (c *Core) dispatch(at float64) {
	// Resubmitted clones (and the eager path's fresh offspring) first.
	for len(c.pending) > 0 {
		w, ok := c.reg.popIdle()
		if !ok {
			break
		}
		item := c.pending[0]
		c.pending = c.pending[1:]
		c.grant(w.id, item, at)
	}
	// Lazy and scheduled policies: generate fresh offspring on demand,
	// as long as live work chains stay within the remaining budget (so
	// the run never over-issues evaluations).
	if c.cfg.Policy != EagerOffspring {
		for c.stats.Completed+uint64(c.busy)+uint64(len(c.pending)) < c.cfg.Budget {
			w, ok := c.reg.popIdle()
			if !ok {
				break
			}
			c.grant(w.id, c.newItem(c.cfg.Alg.Suggest()), at)
		}
	}
	// Last resort: work remains but every worker is presumed dead.
	// Probe them (bounded per death episode) in case a recovery hello
	// was lost to a lossy link.
	if c.cfg.LeaseTimeout > 0 && c.busy == 0 {
		for _, id := range c.reg.Known() {
			if len(c.pending) == 0 {
				break
			}
			w := c.reg.lookup(id)
			if w.state == StateSuspect && w.probes < c.cfg.MaxProbes {
				w.probes++
				item := c.pending[0]
				c.pending = c.pending[1:]
				c.grant(id, item, at)
			}
		}
	}
}

func (c *Core) expire(now float64) {
	for {
		l, ok := c.heap.peek()
		if !ok || l.deadline > now {
			return
		}
		c.heap.pop()
		c.stats.Expiries++
		c.cfg.Meters.LeaseExp.Inc()
		worker := l.worker // lose pools l
		if c.cfg.Emit != nil {
			c.cfg.Emit("lease.expire", fmt.Sprintf("worker=%d id=%d", worker, l.item.ID))
		}
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.TraceExpire(worker, l.item.ID, now)
		}
		c.lose(l)
		c.reg.MarkSuspect(worker)
	}
}
