package des

// Timer is a cancellable, reschedulable one-shot virtual-time timer.
// It wraps the engine's event handles so callers (e.g. the lease table
// in internal/parallel) can keep a single timer armed at a moving
// deadline without leaking dead events or allocating per rearm: Reset
// cancels any pending firing, which leaves the queue at once, before
// scheduling the next one.
//
// Like all engine state, a Timer must be used from a single simulation
// domain (see the package doc).
type Timer struct {
	eng    *Engine
	fn     func()
	handle Handle
	armed  bool
}

// NewTimer returns an unarmed timer that will run fn when it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

func fireTimer(timer any) {
	t := timer.(*Timer)
	t.armed = false
	t.fn()
}

// Reset arms the timer to fire after delay units of virtual time,
// cancelling any previously scheduled firing.
func (t *Timer) Reset(delay Time) {
	t.Stop()
	t.armed = true
	t.handle = t.eng.ScheduleCall(delay, fireTimer, t)
}

// Stop cancels a pending firing. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() {
	if t.armed {
		t.handle.Cancel()
		t.armed = false
	}
}

// Armed reports whether a firing is currently scheduled.
func (t *Timer) Armed() bool { return t.armed }
