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
// (proc). Events are recycled; gen counts the recyclings so a Handle
// from an earlier life is inert.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break
	fn   func()
	call func(any)
	arg  any
	proc *Process
	idx  int // position in Engine.events
	gen  uint64
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulator. An Engine and everything
// scheduled on it must be used from a single simulation domain: the
// goroutine that calls Run, or simulation code running under it.
type Engine struct {
	now    Time
	events []*event // binary min-heap on (at, seq)
	free   []*event
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
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the event from running and takes it out of the queue
// at once. Canceling an already-run or already-canceled event is a
// no-op, also once the engine has reused the event's storage.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.eng.remove(h.ev.idx)
		h.eng.recycle(h.ev)
	}
}

// Schedule runs fn after delay units of virtual time. It panics on a
// negative or NaN delay.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	ev := e.after(delay)
	ev.fn = fn
	return Handle{e, ev, ev.gen}
}

// ScheduleCall runs fn(arg) after delay: Schedule without a closure
// per event, for a caller that keeps fn and passes a pointer.
func (e *Engine) ScheduleCall(delay Time, fn func(any), arg any) Handle {
	ev := e.after(delay)
	ev.call, ev.arg = fn, arg
	return Handle{e, ev, ev.gen}
}

// At runs fn at absolute virtual time t, which must not precede Now.
func (e *Engine) At(t Time, fn func()) Handle {
	if !(t >= e.now) {
		panic(fmt.Sprintf("des: At(%v) before now (%v)", t, e.now))
	}
	ev := e.push(t)
	ev.fn = fn
	return Handle{e, ev, ev.gen}
}

// after queues an event delay from now for the caller to fill in.
func (e *Engine) after(delay Time) *event {
	if !(delay >= 0) {
		panic(fmt.Sprintf("des: Schedule with invalid delay %v", delay))
	}
	return e.push(e.now + delay)
}

// push queues a recycled (or new) event at time t.
func (e *Engine) push(t Time) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq = t, e.seq
	e.seq++
	e.events = append(e.events, ev)
	e.siftUp(len(e.events)-1, ev)
	return ev
}

// siftUp places ev at or above the hole at heap position i.
func (e *Engine) siftUp(i int, ev *event) {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

// remove takes the event at heap position i out of the queue.
func (e *Engine) remove(i int) {
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	if i == n {
		return
	}
	// Refill the hole with the last event: down past earlier children,
	// then (from mid-heap) up past later parents.
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(last) {
			break
		}
		h[i] = h[child]
		h[i].idx = i
		i = child
	}
	e.siftUp(i, last)
}

// recycle frees a popped or canceled event and voids its Handles.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.call, ev.arg, ev.proc = nil, nil, nil, nil
	ev.gen++
	e.free = append(e.free, ev)
}

// next pops the earliest event, if the current run may execute it.
func (e *Engine) next() *event {
	if len(e.events) == 0 || e.quota == 0 {
		return nil
	}
	ev := e.events[0]
	if ev.at > e.limit {
		return nil
	}
	e.quota--
	e.remove(0)
	e.now = ev.at
	e.processed++
	return ev
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
		ev := e.next()
		if ev == nil {
			if self != nil {
				e.root <- struct{}{}
			}
			return false
		}
		fn, call, arg, p := ev.fn, ev.call, ev.arg, ev.proc
		e.recycle(ev)
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
	for _, ev := range e.events {
		e.recycle(ev) // a Handle kept past Shutdown stays inert
	}
	clear(e.events)
	e.events = e.events[:0]
	e.rethrow()
}
