// Package des is a discrete-event simulation engine with SimPy-style
// processes, holds, and FIFO resources. It is the substrate for both
// the paper's "simulation model" (a queueing-only model of the
// master/worker interaction) and this repository's virtual cluster,
// which executes the real Borg MOEA under virtual time.
//
// Events sit in a priority queue ordered by virtual time (ties broken
// FIFO by scheduling order). There is no engine goroutine: the event
// loop runs on whichever goroutine holds the baton, exactly one at any
// instant, so simulation code may touch engine and shared simulation
// state without locks. The Run/RunUntil/Step caller starts with it. A
// process that parks keeps it and pops events itself: its own wake
// makes it return with no goroutine switch, callback events it runs
// inline, another process's wake gets the baton handed straight over,
// and only with nothing left inside the run's limit does the baton go
// back to the Run caller. A callback may thus run on any goroutine of
// the simulation; it may schedule events and wake or start processes,
// but must not block — it has no process of its own to park.
package des

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds.
type Time = float64

// event is a scheduled callback (fn, or call(arg)) or process wake
// (proc), stored in a slot of Engine.slab. Slots are recycled; gen
// counts the recyclings so a Handle from an earlier life is inert.
type event struct {
	fn   func()
	call func(any)
	arg  any
	proc *Process
	idx  int // position of the slot's entry in Engine.events
	gen  uint64
}

// entry is one heap element: an event's key and its slot. It holds no
// pointers, so sifting it is plain memory traffic — no GC write
// barriers, no chasing an event to compare keys — and the garbage
// collector never scans the heap.
type entry struct {
	at   Time
	seq  uint64 // FIFO tie-break; (at, seq) is unique
	slot int
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulator. An Engine and everything
// scheduled on it must be used from a single simulation domain: the
// goroutine that calls Run, or simulation code running under it.
type Engine struct {
	now    Time
	events []entry // binary min-heap on (at, seq)
	slab   []event // event storage, indexed by entry.slot
	free   []int   // recycled slots
	seq    uint64
	// limit and quota bound the current run wherever the baton is: no
	// event after limit runs, and at most quota more.
	limit Time
	quota uint64
	root  chan struct{} // returns the baton to the Run/Shutdown caller
	procs []*Process    // every process started, for Shutdown
	// failure carries a panic out of a process goroutine to the root.
	failure any
	// processed counts executed events.
	processed uint64
	trace     func(TraceEvent)
}

// New returns an empty simulation at time 0.
func New() *Engine {
	return &Engine{root: make(chan struct{}, 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetTrace installs a hook invoked for every trace event emitted via
// Emit (and by Resources and Processes). A nil hook disables tracing.
func (e *Engine) SetTrace(fn func(TraceEvent)) { e.trace = fn }

// Tracing reports whether a trace hook is installed. Callers that must
// format an Emit argument check it first, so an untraced run does not
// pay for strings nobody reads.
func (e *Engine) Tracing() bool { return e.trace != nil }

// Emit records a trace event at the current time if tracing is on.
func (e *Engine) Emit(kind, actor, detail string) {
	if e.trace != nil {
		e.trace(TraceEvent{At: e.now, Kind: kind, Actor: actor, Detail: detail})
	}
}

// TraceEvent is one entry in a simulation trace, used to render the
// paper's Figure 1/2-style timelines.
type TraceEvent struct {
	At     Time
	Kind   string // e.g. "send", "recv", "eval.start", "eval.end", "busy", "idle"
	Actor  string // e.g. "master", "worker3"
	Detail string
}

func (t TraceEvent) String() string {
	return fmt.Sprintf("%12.6f %-10s %-9s %s", t.At, t.Actor, t.Kind, t.Detail)
}

// Handle identifies a scheduled event so it can be canceled.
type Handle struct {
	eng  *Engine
	slot int
	gen  uint64
}

// Cancel prevents the event from running and takes it out of the queue
// at once. Canceling an already-run or already-canceled event is a
// no-op, also once the engine has reused the event's slot.
func (h Handle) Cancel() {
	if e := h.eng; e != nil && e.slab[h.slot].gen == h.gen {
		e.remove(e.slab[h.slot].idx)
		e.recycle(h.slot)
	}
}

// Schedule runs fn after delay units of virtual time. It panics on a
// negative or NaN delay.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	slot := e.after(delay)
	ev := &e.slab[slot]
	ev.fn = fn
	return Handle{e, slot, ev.gen}
}

// ScheduleCall runs fn(arg) after delay: Schedule without a closure
// per event, for a caller that keeps fn and passes a pointer.
func (e *Engine) ScheduleCall(delay Time, fn func(any), arg any) Handle {
	slot := e.after(delay)
	ev := &e.slab[slot]
	ev.call, ev.arg = fn, arg
	return Handle{e, slot, ev.gen}
}

// At runs fn at absolute virtual time t, which must not precede Now.
func (e *Engine) At(t Time, fn func()) Handle {
	if !(t >= e.now) {
		panic(fmt.Sprintf("des: At(%v) before now (%v)", t, e.now))
	}
	slot := e.push(t)
	ev := &e.slab[slot]
	ev.fn = fn
	return Handle{e, slot, ev.gen}
}

// after queues an event delay from now and returns its slot for the
// caller to fill in.
func (e *Engine) after(delay Time) int {
	if !(delay >= 0) {
		panic(fmt.Sprintf("des: Schedule with invalid delay %v", delay))
	}
	return e.push(e.now + delay)
}

// push queues an event at time t in a recycled (or new) slot.
func (e *Engine) push(t Time) int {
	var slot int
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = len(e.slab)
		e.slab = append(e.slab, event{})
	}
	e.events = append(e.events, entry{})
	e.siftUp(len(e.events)-1, entry{at: t, seq: e.seq, slot: slot})
	e.seq++
	return slot
}

// siftUp places x at or above the hole at heap position i.
func (e *Engine) siftUp(i int, x entry) {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slab[h[i].slot].idx = i
		i = parent
	}
	h[i] = x
	e.slab[x.slot].idx = i
}

// remove takes the entry at heap position i out of the queue.
func (e *Engine) remove(i int) {
	h := e.events
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.events = h
	if i == n {
		return
	}
	// Refill the hole with the last entry: down past earlier children,
	// then (from mid-heap) up past later parents.
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		e.slab[h[i].slot].idx = i
		i = child
	}
	e.siftUp(i, last)
}

// recycle frees a popped or canceled event's slot and voids its
// Handles.
func (e *Engine) recycle(slot int) {
	ev := &e.slab[slot]
	ev.fn, ev.call, ev.arg, ev.proc = nil, nil, nil, nil
	ev.gen++
	e.free = append(e.free, slot)
}

// next pops the earliest event, if the current run may execute it, and
// returns its slot.
func (e *Engine) next() (slot int, ok bool) {
	if len(e.events) == 0 || e.quota == 0 {
		return 0, false
	}
	top := e.events[0]
	if top.at > e.limit {
		return 0, false
	}
	e.quota--
	e.remove(0)
	e.now = top.at
	e.processed++
	return top.slot, true
}

// drive runs the event loop on the calling goroutine, which holds the
// baton: self is the parked (or finished) process driving, nil for the
// root. True means self's own wake came up and self resumes. False
// means the baton is gone — handed to another process or, with nothing
// left to run, back to the root — and a parked self must wait on its
// resume channel. The root waits for the baton to come back and drives
// on, so for it false means nothing is left.
func (e *Engine) drive(self *Process) bool {
	for {
		slot, ok := e.next()
		if !ok {
			if self != nil {
				e.root <- struct{}{}
			}
			return false
		}
		ev := &e.slab[slot]
		fn, call, arg, p := ev.fn, ev.call, ev.arg, ev.proc
		e.recycle(slot)
		switch {
		case fn != nil:
			fn()
		case call != nil:
			call(arg)
		case p.finished:
			// A wake scheduled for a process that has since ended.
		case p == self:
			return true
		default:
			p.takeBaton()
			if self != nil {
				return false
			}
			<-e.root
			e.rethrow()
		}
	}
}

// rethrow re-raises in the root a panic that ended a process goroutine.
func (e *Engine) rethrow() {
	if r := e.failure; r != nil {
		e.failure = nil
		panic(r)
	}
}

// run executes events within the bounds and reports whether any ran.
func (e *Engine) run(limit Time, quota uint64) bool {
	before := e.processed
	e.limit, e.quota = limit, quota
	e.drive(nil)
	return e.processed != before
}

// Step executes the next pending event, advancing the clock, and
// reports whether there was one: one callback, or one process start or
// wake with everything the process does until it next parks or ends
// (it then returns the baton instead of driving further events).
func (e *Engine) Step() bool { return e.run(math.Inf(1), 1) }

// Run executes events until none remain, then returns the final time.
func (e *Engine) Run() Time {
	e.run(math.Inf(1), math.MaxUint64)
	return e.now
}

// RunUntil executes events with timestamps <= t, then sets the clock
// to t (if it advanced past the last event) and returns it. A process
// holding the baton honors the bound too.
func (e *Engine) RunUntil(t Time) Time {
	e.run(t, math.MaxUint64)
	if e.now < t {
		e.now = t
	}
	return e.now
}

// Pending reports whether any events remain.
func (e *Engine) Pending() bool { return len(e.events) > 0 }

// Shutdown terminates all parked processes so their goroutines exit.
// Pending events are discarded. The engine remains usable for
// inspection but not for further scheduling of the killed processes.
func (e *Engine) Shutdown() {
	for _, p := range e.procs {
		if !p.finished {
			p.killing = true
			p.resume <- struct{}{}
			<-e.root // its goroutine has unwound
		}
	}
	e.procs = nil
	for _, x := range e.events {
		e.recycle(x.slot) // a Handle kept past Shutdown stays inert
	}
	e.events = e.events[:0]
	e.rethrow()
}
