package des

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestRunUntilBoundsBatonHolder: the RunUntil limit holds while a
// process, not the caller, is driving the event loop.
func TestRunUntilBoundsBatonHolder(t *testing.T) {
	e := New()
	var holds, callbacks []Time
	e.Go("p", func(p *Process) {
		for i := 0; i < 6; i++ {
			p.Hold(1)
			holds = append(holds, p.Now())
		}
	})
	for _, at := range []Time{2.5, 3.5} {
		e.Schedule(at, func() { callbacks = append(callbacks, e.Now()) })
	}
	if now := e.RunUntil(3); now != 3 {
		t.Fatalf("RunUntil(3) returned %v", now)
	}
	if len(holds) != 3 || holds[2] != 3 || len(callbacks) != 1 || callbacks[0] != 2.5 {
		t.Fatalf("by t=3: holds %v callbacks %v, want [1 2 3] and [2.5]", holds, callbacks)
	}
	if len(e.events) == 0 {
		t.Fatal("events after the limit were dropped")
	}
	e.Run()
	if len(holds) != 6 || len(callbacks) != 2 || e.Now() != 6 {
		t.Fatalf("after Run: holds %v callbacks %v now %v", holds, callbacks, e.Now())
	}
}

// TestStepRunsOneEvent: a process woken by Step hands the baton back
// at its next park instead of driving on.
func TestStepRunsOneEvent(t *testing.T) {
	e := New()
	var log []string
	e.Go("p", func(p *Process) {
		log = append(log, "start")
		p.Hold(1)
		log = append(log, "held")
	})
	e.Schedule(0.5, func() { log = append(log, "cb") })
	want := []string{"start", "cb", "held"}
	for i, w := range want {
		if !e.Step() || len(log) != i+1 || log[i] != w {
			t.Fatalf("step %d: log %v, want prefix %v", i, log, want[:i+1])
		}
	}
	if e.Step() {
		t.Fatal("Step reported an event on an empty queue")
	}
	if e.processed != 3 {
		t.Fatalf("Processed = %d, want 3", e.processed)
	}
}

// waitGoroutines polls until the goroutine count is back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestShutdownUnwindsEveryParkedState kills processes parked in each
// way the baton rule allows, and leaves an unstarted one alone.
func TestShutdownUnwindsEveryParkedState(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	unwound := map[string]bool{}
	body := func(park func(p *Process)) func(*Process) {
		return func(p *Process) {
			defer func() { unwound[p.Name()] = true }()
			park(p)
			t.Errorf("%s ran on past its last park", p.Name())
		}
	}
	// Starts first and is never woken; parking, it pops the next start
	// event and hands the baton to that process.
	e.Go("handed-away", body(func(p *Process) { p.Park() }))
	// Hands the baton on the same way, with its own wake queued beyond
	// the run's limit.
	e.Go("awaiting-wake", body(func(p *Process) { p.Hold(100) }))
	// Runs the callback that wakes it, resumes without a switch, then
	// parks with nothing left inside the limit: the baton goes back to
	// the root.
	var last *Process
	last = e.Go("returned-to-root", body(func(p *Process) {
		p.Park()
		if p.Now() != 1 {
			t.Errorf("woken at %v, want 1", p.Now())
		}
		p.Hold(100)
	}))
	e.Schedule(1, func() { last.WakeLater(0) })
	e.GoAfter(1000, "unstarted", func(*Process) { t.Error("unstarted process ran") })
	e.RunUntil(10)
	if n := runtime.NumGoroutine(); n != base+3 {
		t.Fatalf("%d goroutines with three parked processes, want %d", n, base+3)
	}
	e.Shutdown()
	for _, name := range []string{"handed-away", "returned-to-root", "awaiting-wake"} {
		if !unwound[name] {
			t.Errorf("%s not unwound", name)
		}
	}
	if len(e.events) > 0 {
		t.Error("events pending after Shutdown")
	}
	waitGoroutines(t, base)
}

// runPanics runs the engine and returns what Run panicked with.
func runPanics(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestPanicsReachRunCaller: a panic in process code, and one in a
// callback that happened to run on a process goroutine, both surface in
// the goroutine that called Run, with the original payload.
func TestPanicsReachRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	t.Run("process", func(t *testing.T) {
		e := New()
		e.Go("bystander", func(p *Process) { p.Hold(10) })
		e.Go("p", func(p *Process) {
			p.Hold(1)
			panic(boom)
		})
		if r := runPanics(e); r != boom {
			t.Fatalf("Run panicked with %v, want %v", r, boom)
		}
		e.Shutdown()
	})
	t.Run("callback on a process goroutine", func(t *testing.T) {
		e := New()
		onProcess := false
		var self *Process
		self = e.Go("p", func(p *Process) {
			defer func() { onProcess = true }()
			p.Hold(10) // drives the loop, so runs the callback below
		})
		e.Schedule(5, func() { panic(boom) })
		if r := runPanics(e); r != boom {
			t.Fatalf("Run panicked with %v, want %v", r, boom)
		}
		if !onProcess || !self.finished {
			t.Fatal("the callback did not unwind the process that ran it")
		}
		e.Shutdown()
	})
	waitGoroutines(t, base)
}

// TestCanceledEventsLeaveTheQueue: Cancel removes the event at once, so
// a timer rearmed or a deadline canceled 100 000 times keeps the queue
// at its live size — the lease timer and every RecvTimeout used to
// leave one corpse per call until its timestamp came up.
func TestCanceledEventsLeaveTheQueue(t *testing.T) {
	e := New()
	e.Schedule(1e9, func() {})
	var timer Handle
	for i := 0; i < 100000; i++ {
		timer.Cancel() // a lease timer rearmed...
		timer = e.Schedule(1e6, func() {})
		h := e.Schedule(1e6, func() {}) // ...and a RecvTimeout deadline...
		e.RunUntil(e.Now() + 1)
		h.Cancel() // ...beaten by the message
		if len(e.events) != 2 || len(e.free) > 2 {
			t.Fatalf("cycle %d: %d queued, %d free; want 2 queued (timer + sentinel)", i, len(e.events), len(e.free))
		}
	}
	timer.Cancel()
	if len(e.events) != 1 {
		t.Fatalf("%d queued after Stop, want the sentinel alone", len(e.events))
	}
}

// TestCancelMidHeap cancels from every heap position and checks the
// survivors still run in (time, seq) order.
func TestCancelMidHeap(t *testing.T) {
	const n = 64
	for victim := 0; victim < n; victim++ {
		e := New()
		var ran []int
		hs := make([]Handle, n)
		for i := 0; i < n; i++ {
			i := i
			hs[i] = e.Schedule(Time((i*37)%n/4), func() { ran = append(ran, i) })
		}
		hs[victim].Cancel()
		last := Time(-1)
		lastSeq := -1
		e.Run()
		if len(ran) != n-1 {
			t.Fatalf("victim %d: %d events ran, want %d", victim, len(ran), n-1)
		}
		for _, i := range ran {
			at := Time((i * 37) % n / 4)
			if i == victim || at < last || (at == last && i < lastSeq) {
				t.Fatalf("victim %d: order %v", victim, ran)
			}
			last, lastSeq = at, i
		}
	}
}

// TestStaleHandleIsInert: a Handle outlives its event; once the event
// ran and its storage was reused, Cancel must not touch the new tenant.
func TestStaleHandleIsInert(t *testing.T) {
	e := New()
	stale := e.Schedule(1, func() {})
	e.Run()
	ran := false
	fresh := e.Schedule(1, func() { ran = true })
	if fresh.slot != stale.slot {
		t.Fatal("test premise: the second event should reuse the first one's slot")
	}
	stale.Cancel()
	stale.Cancel()
	e.Run()
	if !ran {
		t.Fatal("a stale Handle canceled the event that reused its storage")
	}
	fresh.Cancel() // already ran: also inert
	e.Shutdown()
	fresh.Cancel()
}

// TestHoldNoAllocs: a Hold is a pooled event and no goroutine switch.
func TestHoldNoAllocs(t *testing.T) {
	e := New()
	e.Go("p", func(p *Process) {
		for {
			p.Hold(1)
		}
	})
	allocs := testing.AllocsPerRun(20, func() { e.RunUntil(e.Now() + 1000) })
	e.Shutdown()
	if allocs != 0 {
		t.Fatalf("%v allocations per 1000 holds, want 0", allocs)
	}
}
