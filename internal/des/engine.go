// Package des is a discrete-event simulation engine with SimPy-style
// processes, holds, and FIFO resources. It is the substrate for both
// the paper's "simulation model" (a queueing-only model of the
// master/worker interaction) and this repository's virtual cluster,
// which executes the real Borg MOEA under virtual time.
//
// Events run in virtual-time order, ties broken FIFO by scheduling
// order. They wait in one of three queues: a FIFO of events due at the
// current instant, a heap of Process.Hold wakes (one per holding
// process) and a heap of every other later event; see Engine. There is
// no engine goroutine: the event loop runs on whichever goroutine
// holds the baton, exactly one at any instant, so simulation code may
// touch engine and shared simulation state without locks. The
// Run/RunUntil/Step caller starts with it. A process that parks keeps
// it and pops events itself: its own wake makes it return with no
// goroutine switch, callback events it runs inline, another process's
// wake gets the baton handed straight over, and only with nothing left
// inside the run's limit does the baton go back to the Run caller. A callback may thus run on any goroutine of
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
	gen  uint64
	// idx is the position of the slot's entry in its heap or, queued in
	// the due-now FIFO, the next slot in line (-1 at the tail). As an
	// int32 it shares a word with in, so a slot stays 56 bytes.
	idx int32
	in  queue
}

// queue says where a slot waits.
type queue uint8

const (
	inHeap queue = iota // Engine.events or Engine.holds
	inNow               // the due-now FIFO
	inVoid              // canceled in the FIFO; freed when the FIFO reaches it
)

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
//
// An event due at the current instant (a zero delay: a delivery, a
// server or process wake) joins the due-now FIFO, with no key and no
// sift; a Process.Hold wake due later joins the holds heap, which has
// at most one entry per process; any other later event joins the
// events heap. The next event is the (at, seq) minimum of the two
// heaps if that is due now, else the FIFO head, else that minimum.
// This is exactly the one-heap order: a heap entry due now was queued
// before time reached now, so its seq is smaller than that of every
// FIFO entry, all of which were queued at now; and time cannot advance
// while the FIFO holds an event.
type Engine struct {
	now    Time
	events []entry // later events but Hold wakes: binary min-heap on (at, seq)
	holds  []entry // later Process.Hold wakes: binary min-heap on (at, seq)
	// head and tail are the ends of the due-now FIFO, threaded through
	// event.idx; head is -1 when it is empty.
	head, tail int
	slab       []event // event storage, indexed by entry.slot
	free       []int   // recycled slots
	seq        uint64
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
	return &Engine{head: -1, root: make(chan struct{}, 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

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
// no-op, also once the engine has reused the event's slot. An event
// due now leaves a void slot in the FIFO, freed when the FIFO reaches
// it: before time next advances.
func (h Handle) Cancel() {
	e := h.eng
	if e == nil || e.slab[h.slot].gen != h.gen {
		return
	}
	if ev := e.release(h.slot); ev.in == inNow {
		ev.in = inVoid
	} else { // a Handle is never a Hold wake's
		e.remove(&e.events, int(ev.idx))
		e.free = append(e.free, h.slot)
	}
}

// Schedule runs fn after delay units of virtual time. It panics on a
// negative or NaN delay.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	slot := e.after(delay, &e.events)
	ev := &e.slab[slot]
	ev.fn = fn
	return Handle{e, slot, ev.gen}
}

// ScheduleCall runs fn(arg) after delay: Schedule without a closure
// per event, for a caller that keeps fn and passes a pointer.
func (e *Engine) ScheduleCall(delay Time, fn func(any), arg any) Handle {
	slot := e.after(delay, &e.events)
	ev := &e.slab[slot]
	ev.call, ev.arg = fn, arg
	return Handle{e, slot, ev.gen}
}

// after queues an event delay from now, in heap h (e.events or
// e.holds) unless it is due now, and returns its slot for the caller
// to fill in.
func (e *Engine) after(delay Time, h *[]entry) int {
	if !(delay >= 0) {
		panic(fmt.Sprintf("des: Schedule with invalid delay %v", delay))
	}
	return e.push(e.now+delay, h)
}

// push queues an event at time t in a recycled (or new) slot: at the
// FIFO's tail if t is now, else in heap h.
func (e *Engine) push(t Time, h *[]entry) int {
	var slot int
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = len(e.slab)
		e.slab = append(e.slab, event{})
	}
	ev := &e.slab[slot]
	if t == e.now {
		ev.in, ev.idx = inNow, -1
		if e.head < 0 {
			e.head = slot
		} else {
			e.slab[e.tail].idx = int32(slot)
		}
		e.tail = slot
		return slot
	}
	ev.in = inHeap
	q := append(*h, entry{})
	*h = q
	e.siftUp(q, len(q)-1, entry{at: t, seq: e.seq, slot: slot})
	e.seq++
	return slot
}

// siftUp places x at or above the hole at position i of heap h.
func (e *Engine) siftUp(h []entry, i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slab[h[i].slot].idx = int32(i)
		i = parent
	}
	h[i] = x
	e.slab[x.slot].idx = int32(i)
}

// remove takes the entry at position i out of heap *q.
func (e *Engine) remove(q *[]entry, i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*q = h
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
		e.slab[h[i].slot].idx = int32(i)
		i = child
	}
	e.siftUp(h, i, last)
}

// release clears a popped or canceled event's slot and voids its
// Handles.
func (e *Engine) release(slot int) *event {
	ev := &e.slab[slot]
	ev.fn, ev.call, ev.arg, ev.proc = nil, nil, nil, nil
	ev.gen++
	return ev
}

// recycle releases a slot and frees it for reuse.
func (e *Engine) recycle(slot int) {
	e.release(slot)
	e.free = append(e.free, slot)
}

// next pops the earliest event, if the current run may execute it, and
// returns its slot.
func (e *Engine) next() (slot int, ok bool) {
	for e.head >= 0 && e.slab[e.head].in == inVoid { // canceled: skip and free
		slot = e.head
		e.head = int(e.slab[slot].idx)
		e.free = append(e.free, slot)
	}
	if e.quota == 0 {
		return 0, false
	}
	h := &e.events
	if len(e.holds) > 0 && (len(e.events) == 0 || e.holds[0].before(&e.events[0])) {
		h = &e.holds
	}
	// A heap entry due now precedes the whole FIFO, one due later
	// follows it (see Engine).
	if q := *h; len(q) > 0 && (e.head < 0 || q[0].at == e.now) {
		top := q[0]
		if top.at > e.limit {
			return 0, false
		}
		e.remove(h, 0)
		e.now, slot = top.at, top.slot
	} else if e.head >= 0 && e.now <= e.limit {
		slot = e.head
		e.head = int(e.slab[slot].idx)
	} else {
		return 0, false
	}
	e.quota--
	e.processed++
	return slot, true
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
	// A Handle kept past Shutdown stays inert.
	for _, h := range []*[]entry{&e.events, &e.holds} {
		for _, x := range *h {
			e.recycle(x.slot)
		}
		*h = (*h)[:0]
	}
	for slot := e.head; slot >= 0; {
		next := int(e.slab[slot].idx)
		e.recycle(slot)
		slot = next
	}
	e.head = -1
	e.rethrow()
}
