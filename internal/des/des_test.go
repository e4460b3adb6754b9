package des

import (
	"math"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %v, want 3", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of FIFO order: %v", got)
		}
	}
}

func TestClockMonotonic(t *testing.T) {
	e := New()
	last := -1.0
	// Events that schedule more events at random-ish offsets.
	var rec func(depth int)
	rec = func(depth int) {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
		if depth < 5 {
			e.Schedule(0.5, func() { rec(depth + 1) })
			e.Schedule(0.1, func() { rec(depth + 1) })
		}
	}
	e.Schedule(0, func() { rec(0) })
	e.Run()
}

func TestScheduleZeroDelayRunsAtSameTime(t *testing.T) {
	e := New()
	var at Time = -1
	e.Schedule(2, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != 2 {
		t.Fatalf("zero-delay event ran at %v, want 2", at)
	}
}

func TestSchedulePanicsOnNegativeDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestAtPanicsOnPast(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	h := e.Schedule(1, func() { ran = true })
	h.Cancel()
	e.Run()
	if ran {
		t.Fatal("canceled event still ran")
	}
	if e.Pending() {
		t.Fatal("Pending() true after cancel + run")
	}
}

func TestCancelIdempotent(t *testing.T) {
	e := New()
	h := e.Schedule(1, func() {})
	h.Cancel()
	h.Cancel() // must not panic
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	var ran []Time
	for _, d := range []Time{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(2.5)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(2.5) ran %v, want events at 1 and 2", ran)
	}
	if e.Now() != 2.5 {
		t.Fatalf("clock = %v after RunUntil(2.5)", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("remaining events lost: %v", ran)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestProcessHold(t *testing.T) {
	e := New()
	var marks []Time
	e.Go("p", func(p *Process) {
		marks = append(marks, p.Now())
		p.Hold(1.5)
		marks = append(marks, p.Now())
		p.Hold(0.5)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []Time{0, 1.5, 2}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcessesInterleave(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Process) {
		order = append(order, "a0")
		p.Hold(2)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Process) {
		order = append(order, "b0")
		p.Hold(1)
		order = append(order, "b1")
		p.Hold(2)
		order = append(order, "b3")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestGoAfter(t *testing.T) {
	e := New()
	var started Time = -1
	e.GoAfter(3, "late", func(p *Process) { started = p.Now() })
	e.Run()
	if started != 3 {
		t.Fatalf("GoAfter(3) started at %v", started)
	}
}

func TestHoldPanicsOnNegative(t *testing.T) {
	e := New()
	var recovered any
	e.Go("p", func(p *Process) {
		defer func() { recovered = recover() }()
		p.Hold(-1)
	})
	e.Run()
	if recovered == nil {
		t.Fatal("Hold(-1) did not panic")
	}
}

func TestParkWake(t *testing.T) {
	e := New()
	var resumedAt Time = -1
	sleeper := e.Go("sleeper", func(p *Process) {
		p.Park()
		resumedAt = p.Now()
	})
	e.Go("waker", func(p *Process) {
		p.Hold(4)
		sleeper.WakeLater(0.5)
	})
	e.Run()
	if resumedAt != 4.5 {
		t.Fatalf("sleeper resumed at %v, want 4.5", resumedAt)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New()
	sig := NewSignal(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Process) {
			sig.Wait(p)
			woken++
		})
	}
	e.Go("firer", func(p *Process) {
		p.Hold(1)
		if sig.Waiting() != 5 {
			t.Errorf("Waiting() = %d, want 5", sig.Waiting())
		}
		sig.Fire()
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("Fire woke %d of 5 waiters", woken)
	}
}

func TestSignalDoesNotWakeLateWaiters(t *testing.T) {
	e := New()
	sig := NewSignal(e)
	lateWoken := false
	e.Go("firer", func(p *Process) { sig.Fire() })
	e.GoAfter(1, "late", func(p *Process) {
		sig.Wait(p)
		lateWoken = true
	})
	e.Run()
	if lateWoken {
		t.Fatal("waiter registered after Fire was woken by it")
	}
	e.Shutdown()
}

func TestShutdownTerminatesParked(t *testing.T) {
	e := New()
	cleanups := 0
	for i := 0; i < 3; i++ {
		e.Go("stuck", func(p *Process) {
			defer func() { cleanups++ }()
			p.Park() // never woken
		})
	}
	e.Run()
	e.Shutdown()
	if cleanups != 3 {
		t.Fatalf("Shutdown unwound %d of 3 processes (defers must run)", cleanups)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := New()
	res := NewResource(e, "master", 1)
	active := 0
	maxActive := 0
	for i := 0; i < 10; i++ {
		e.Go("w", func(p *Process) {
			res.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Hold(1)
			active--
			res.Release(p)
		})
	}
	end := e.Run()
	if maxActive != 1 {
		t.Fatalf("capacity-1 resource had %d simultaneous holders", maxActive)
	}
	if end != 10 {
		t.Fatalf("10 unit-time critical sections finished at %v, want 10", end)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := New()
	res := NewResource(e, "r", 1)
	var grantOrder []int
	for i := 0; i < 8; i++ {
		i := i
		// Stagger arrivals so the queue order is well-defined.
		e.GoAfter(Time(i)*0.01, "w", func(p *Process) {
			res.Acquire(p)
			grantOrder = append(grantOrder, i)
			p.Hold(1)
			res.Release(p)
		})
	}
	e.Run()
	for i, v := range grantOrder {
		if v != i {
			t.Fatalf("grants out of FIFO order: %v", grantOrder)
		}
	}
}

func TestResourceCapacityN(t *testing.T) {
	e := New()
	res := NewResource(e, "pool", 3)
	active, maxActive := 0, 0
	for i := 0; i < 9; i++ {
		e.Go("w", func(p *Process) {
			res.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Hold(1)
			active--
			res.Release(p)
		})
	}
	end := e.Run()
	if maxActive != 3 {
		t.Fatalf("capacity-3 resource peaked at %d holders", maxActive)
	}
	if end != 3 {
		t.Fatalf("9 unit jobs on 3 servers finished at %v, want 3", end)
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	e := New()
	res := NewResource(e, "r", 1)
	var recovered any
	e.Go("p", func(p *Process) {
		defer func() { recovered = recover() }()
		res.Release(p)
	})
	e.Run()
	if recovered == nil {
		t.Fatal("Release of idle resource did not panic")
	}
}

func TestResourceStats(t *testing.T) {
	e := New()
	res := NewResource(e, "m", 1)
	// One holder busy for 2 of 4 simulated seconds.
	e.Go("w", func(p *Process) {
		res.Acquire(p)
		p.Hold(2)
		res.Release(p)
		p.Hold(2)
	})
	e.Run()
	st := res.Stats()
	if math.Abs(st.Utilization-0.5) > 1e-9 {
		t.Errorf("utilization = %v, want 0.5", st.Utilization)
	}
	if st.Grants != 1 {
		t.Errorf("grants = %d, want 1", st.Grants)
	}
	if st.MaxQueueLen != 0 {
		t.Errorf("maxQ = %d, want 0", st.MaxQueueLen)
	}
}

func TestResourceQueueStats(t *testing.T) {
	e := New()
	res := NewResource(e, "m", 1)
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Process) {
			res.Acquire(p)
			p.Hold(1)
			res.Release(p)
		})
	}
	e.Run()
	st := res.Stats()
	if st.MaxQueueLen != 2 {
		t.Errorf("maxQ = %d, want 2", st.MaxQueueLen)
	}
	// Queue length over time: 2 for [0,1), 1 for [1,2), 0 for [2,3):
	// mean = (2+1+0)/3 = 1.
	if math.Abs(st.MeanQueueLen-1) > 1e-9 {
		t.Errorf("meanQ = %v, want 1", st.MeanQueueLen)
	}
	if math.Abs(st.Utilization-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1", st.Utilization)
	}
}

func TestNewResourcePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(capacity=0) did not panic")
		}
	}()
	NewResource(New(), "bad", 0)
}

func TestTraceHook(t *testing.T) {
	e := New()
	var events []TraceEvent
	e.SetTrace(func(ev TraceEvent) { events = append(events, ev) })
	res := NewResource(e, "m", 1)
	e.Go("w", func(p *Process) {
		res.Acquire(p)
		e.Emit("work", p.Name(), "doing work")
		p.Hold(1)
		res.Release(p)
	})
	e.Run()
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"acquire", "work", "release"} {
		if !kinds[k] {
			t.Errorf("trace missing %q event; got %v", k, events)
		}
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// TestDeterministicReplay runs the same mixed workload twice and
// demands identical event interleaving — the property the whole
// experiment harness relies on for reproducibility.
func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		e := New()
		res := NewResource(e, "m", 2)
		var log []string
		for i := 0; i < 6; i++ {
			i := i
			e.GoAfter(Time(i%3)*0.5, "w", func(p *Process) {
				res.Acquire(p)
				log = append(log, p.Name()+"-acq")
				p.Hold(0.7)
				res.Release(p)
				log = append(log, p.Name()+"-rel")
				_ = i
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replays differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replays diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := New()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i)*1e-6, func() {})
	}
	e.Run()
}

func BenchmarkHold(b *testing.B) {
	b.ReportAllocs()
	e := New()
	e.Go("p", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Hold(1e-6)
		}
	})
	e.Run()
}
