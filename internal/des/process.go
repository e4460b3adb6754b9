package des

import "fmt"

// killed is the panic payload used to unwind a process goroutine when
// the engine shuts down.
type killed struct{}

// Process is a simulated activity on its own goroutine, under the
// baton rule of the package doc: while it executes it holds the baton
// and every other goroutine of the simulation is blocked, so process
// code may freely manipulate simulation state. Parked, it drives the
// event loop from inside the parking call until its own wake comes up
// or it has handed the baton on; callbacks due meanwhile run on its
// goroutine. Process methods must only be called from the process's
// own goroutine (the function passed to Engine.Go), except Name and
// WakeLater.
type Process struct {
	eng      *Engine
	name     string
	fn       func(*Process) // body, until the start event runs it
	resume   chan struct{}  // brings the baton to the parked process
	finished bool
	killing  bool
}

// Name returns the process's diagnostic name.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.eng.now }

// Go starts fn as a new process at the current virtual time. fn begins
// executing when the engine reaches the start event; it runs until it
// returns or is killed by Engine.Shutdown.
func (e *Engine) Go(name string, fn func(*Process)) *Process {
	return e.GoAfter(0, name, fn)
}

// GoAfter starts fn as a new process after delay units of virtual
// time. The process gets its goroutine when the start event runs, so
// one that never starts leaves nothing behind.
func (e *Engine) GoAfter(delay Time, name string, fn func(*Process)) *Process {
	p := &Process{eng: e, name: name, fn: fn, resume: make(chan struct{}, 1)}
	p.WakeLater(delay)
	return p
}

// takeBaton gives the caller's baton to the parked (or not yet
// started) process.
func (p *Process) takeBaton() {
	if fn := p.fn; fn != nil {
		p.fn = nil
		p.eng.procs = append(p.eng.procs, p)
		go p.run(fn)
		return
	}
	p.resume <- struct{}{}
}

// run is the process goroutine. When fn returns it still holds the
// baton and drives the loop until it has passed it on. If instead it
// unwinds — killed by Shutdown, a panic in fn or in a callback it ran,
// runtime.Goexit — the baton goes to the root, which re-raises a real
// panic in the Run caller.
func (p *Process) run(fn func(*Process)) {
	e := p.eng
	passed := false
	defer func() {
		if passed {
			return
		}
		p.finished = true
		if r := recover(); r != (killed{}) {
			e.failure = r
		}
		e.root <- struct{}{}
	}()
	fn(p)
	p.finished = true
	e.drive(p)
	passed = true
}

// parkSelf blocks the process until its wake event comes up, driving
// the event loop meanwhile. It must be called from the process
// goroutine.
func (p *Process) parkSelf() {
	if !p.eng.drive(p) {
		<-p.resume
	}
	if p.killing {
		panic(killed{})
	}
}

// Hold advances the process by d units of virtual time, running
// whatever else is due meanwhile. It panics on negative d.
func (p *Process) Hold(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("des: Hold(%v) with negative duration", d))
	}
	p.WakeLater(d)
	p.parkSelf()
}

// Park blocks the process until some other simulation activity wakes
// it via a Signal, Resource grant, or a scheduled WakeLater.
func (p *Process) Park() { p.parkSelf() }

// WakeLater schedules this process to be woken after delay. It is the
// companion of Park for building custom synchronization: typically
// another process or event calls proc.WakeLater(0).
//
// Unlike most Process methods, WakeLater may be called from any
// simulation domain (a callback or another process).
func (p *Process) WakeLater(delay Time) { p.eng.slab[p.eng.after(delay)].proc = p }

// Signal is a broadcast condition: processes Wait on it and a Fire
// wakes every current waiter at the same virtual time.
type Signal struct {
	eng     *Engine
	waiters []*Process
}

// NewSignal returns a Signal bound to the engine.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait parks the calling process until the next Fire.
func (s *Signal) Wait(p *Process) {
	s.waiters = append(s.waiters, p)
	p.Park()
}

// Fire wakes all currently waiting processes. Processes that start
// waiting after Fire returns wait for the next Fire.
func (s *Signal) Fire() {
	ws := s.waiters
	s.waiters = nil
	for _, p := range ws {
		p.WakeLater(0)
	}
}

// Waiting returns the number of processes currently waiting.
func (s *Signal) Waiting() int { return len(s.waiters) }
