// Package des is a discrete-event simulation engine with SimPy-style
// processes, holds, and FIFO resources. It is the substrate for both
// the paper's "simulation model" (a queueing-only model of the
// master/worker interaction) and this repository's virtual cluster,
// which executes the real Borg MOEA under virtual time.
//
// The engine runs events from a priority queue ordered by virtual
// time (ties broken FIFO by scheduling order). Processes are
// goroutines that run in strict lock-step with the engine: exactly one
// of {engine, some process} is executing at any instant, so process
// code may touch engine and shared simulation state without locks.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds.
type Time = float64

// event is a scheduled callback.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break
	fn   func()
	dead bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. An Engine and everything
// scheduled on it must be used from a single simulation domain: either
// the engine's Run loop or a process it resumed.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	// park receives a token whenever a running process parks or
	// finishes, returning control to the engine (or to the process
	// event that woke it).
	park chan struct{}
	// live tracks parked processes so Shutdown can terminate them.
	live map[*Process]struct{}
	// processed counts executed events.
	processed uint64
	trace     func(TraceEvent)
}

// New returns an empty simulation at time 0.
func New() *Engine {
	return &Engine{
		park: make(chan struct{}),
		live: make(map[*Process]struct{}),
	}
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
type Handle struct{ ev *event }

// Cancel prevents the event from running. Canceling an already-run or
// already-canceled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil {
		h.ev.dead = true
	}
}

// Schedule runs fn after delay units of virtual time. It panics on a
// negative or NaN delay.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: Schedule with invalid delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not precede Now.
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: At(%v) before now (%v)", t, e.now))
	}
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return Handle{ev: ev}
}

// Step executes the next pending event, advancing the clock. It
// reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.processed++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until none remain, then returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= t, then sets the clock
// to t (if it advanced past the last event) and returns it.
func (e *Engine) RunUntil(t Time) Time {
	for {
		next, ok := e.peek()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
	return e.now
}

// peek returns the timestamp of the next live event.
func (e *Engine) peek() (Time, bool) {
	for len(e.events) > 0 {
		if e.events[0].dead {
			heap.Pop(&e.events)
			continue
		}
		return e.events[0].at, true
	}
	return 0, false
}

// Pending reports whether any live events remain.
func (e *Engine) Pending() bool {
	_, ok := e.peek()
	return ok
}

// Shutdown terminates all parked processes so their goroutines exit.
// Pending events are discarded. The engine remains usable for
// inspection but not for further scheduling of the killed processes.
func (e *Engine) Shutdown() {
	for len(e.live) > 0 {
		for p := range e.live {
			p.kill()
			break // map mutated by kill; restart iteration
		}
	}
	e.events = nil
}
