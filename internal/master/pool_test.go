package master

import (
	"testing"

	"borgmoea/internal/core"
)

// TestItemWrappersRecycled: the wrapper of an accepted result is reused
// for the very next grant — ids keep advancing, allocation stops.
func TestItemWrappersRecycled(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 100, Policy: EagerOffspring, Alg: alg})
	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	first := acts[0].Item
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	second := acts[0].Item
	if second != first {
		t.Fatal("accepted wrapper was not recycled into the next grant")
	}
	if second.ID != 2 || second.ResubmitOf != 0 {
		t.Fatalf("recycled wrapper not reset: %+v", second)
	}
}

// TestLoseDoesNotRecycleAbandonedWrapper: a resubmitted (cloned) item's
// original wrapper may still be referenced by an in-flight in-process
// worker — it must never come back as a future grant.
func TestLoseDoesNotRecycleAbandonedWrapper(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 100, Policy: EagerOffspring, Alg: alg})
	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	orig := acts[0].Item
	origSol := orig.S
	// Worker 1 dies; its lease is cloned (id 2) and re-enqueued.
	c.Handle(Event{Kind: EvGone, Worker: 1})
	acts = c.Handle(Event{Kind: EvJoin, Worker: 2})
	wantGrant(t, acts, 0, 2, 3) // an eager join seeds a fresh suggest
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 3})
	clone := acts[0].Item // FIFO: the queued clone goes out first
	if clone == orig {
		t.Fatal("abandoned wrapper recycled while a worker may hold it")
	}
	if clone.ResubmitOf != 1 {
		t.Fatalf("clone.ResubmitOf = %d, want 1", clone.ResubmitOf)
	}
	if clone.S == origSol {
		t.Fatal("clone shares the original Solution without ReuseOnResubmit")
	}
}

// TestReuseOnResubmit: wire-transport cores reissue the same wrapper
// and Solution under a fresh id.
func TestReuseOnResubmit(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 100, Policy: LazyOffspring, ReuseOnResubmit: true, Alg: alg})
	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	orig := acts[0].Item
	origSol := orig.S
	c.Handle(Event{Kind: EvGone, Worker: 1})
	acts = c.Handle(Event{Kind: EvJoin, Worker: 2})
	// Dispatch drains pending (the reissued item) before fresh work.
	reissued := acts[0].Item
	if reissued != orig || reissued.S != origSol {
		t.Fatal("ReuseOnResubmit did not reuse the wrapper and Solution")
	}
	if reissued.ID != 2 || reissued.ResubmitOf != 1 {
		t.Fatalf("reissued id=%d resubmitOf=%d, want 2/1", reissued.ID, reissued.ResubmitOf)
	}
	if got := c.Stats().Resubmissions; got != 1 {
		t.Fatalf("resubmissions = %d, want 1", got)
	}
}

// TestGrantPathSteadyStateAllocs: the eager result→grant hot path must
// not allocate protocol structures once pools are warm (the algorithm's
// own Solution allocations are excluded by the inert stub).
func TestGrantPathSteadyStateAllocs(t *testing.T) {
	alg := &preallocAlg{}
	c := NewCore(Config{Budget: 1 << 30, Policy: EagerOffspring, Alg: alg})
	c.Handle(Event{Kind: EvJoin, Worker: 1})
	item := uint64(1)
	for i := 0; i < 64; i++ { // warm up pools and action slices
		c.Handle(Event{Kind: EvResult, Worker: 1, Item: item})
		item++
	}
	avg := testing.AllocsPerRun(200, func() {
		c.Handle(Event{Kind: EvResult, Worker: 1, Item: item})
		item++
	})
	if avg > 0 {
		t.Fatalf("result→grant path allocates %.2f objects/op, want 0", avg)
	}
}

// TestSettledLeasesLeaveHeap: with expiry on — every TCP master — a
// settled lease leaves the deadline heap at once, so the heap holds
// exactly the outstanding leases after every event, expiries and
// resubmissions included, and the lazy result→grant path allocates
// nothing once warm (leases are pooled, the idle queue keeps its
// capacity).
func TestSettledLeasesLeaveHeap(t *testing.T) {
	alg := &preallocAlg{}
	c := NewCore(Config{Budget: 1 << 30, LeaseTimeout: 30, Policy: LazyOffspring, ReuseOnResubmit: true, Alg: alg})
	check := func(what string) {
		t.Helper()
		if c.heap.len() != c.Outstanding() {
			t.Fatalf("after %s: heap holds %d leases, %d outstanding", what, c.heap.len(), c.Outstanding())
		}
	}
	// lease[w] is worker w's live lease id, 0 when it holds none.
	lease := map[int]uint64{}
	at := 0.0
	handle := func(ev Event) {
		t.Helper()
		ev.At = at
		for _, a := range c.Handle(ev) {
			if a.Kind == ActGrant {
				lease[a.Worker] = a.Item.ID
			}
		}
		check(ev.Kind.String())
	}
	for w := 1; w <= 3; w++ {
		handle(Event{Kind: EvJoin, Worker: w})
	}
	for round := 0; round < 50; round++ {
		at += 1
		for w := 1; w <= 3; w++ {
			id := lease[w]
			lease[w] = 0
			handle(Event{Kind: EvResult, Worker: w, Item: id})
		}
		if round == 20 {
			// Worker 3 goes silent: its lease expires and is reissued.
			silent := lease[3]
			at += 31
			handle(Event{Kind: EvTick})
			handle(Event{Kind: EvResult, Worker: 3, Item: silent}) // late duplicate
		}
	}
	if st := c.Stats(); st.Expiries == 0 || st.Duplicates == 0 {
		t.Fatalf("scenario exercised no expiry: %+v", st)
	}

	// Batched, because AllocsPerRun truncates: a reallocation every few
	// evaluations would read as 0 per single call.
	id := lease[1]
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i++ {
			at += 1e-3
			acts := c.Handle(Event{Kind: EvResult, Worker: 1, Item: id, At: at})
			id = acts[0].Item.ID
		}
	})
	if avg > 0 {
		t.Fatalf("result→grant with expiry on allocates %.0f objects per 100, want 0", avg)
	}
	check("steady state")
}

// TestIdleQueueSteadyStateAllocs: popping the idle queue keeps its
// capacity, so a worker cycling idle → busy never reallocates it.
func TestIdleQueueSteadyStateAllocs(t *testing.T) {
	r := NewRegistry()
	for w := 1; w <= 4; w++ {
		r.Join(w)
		r.MarkIdle(w)
	}
	cycle := func() {
		w, ok := r.popIdle()
		if !ok {
			t.Fatal("idle queue ran dry")
		}
		w.state = StateBusy
		r.MarkIdle(w.id)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	batch := func() { // AllocsPerRun truncates; see TestSettledLeasesLeaveHeap
		for i := 0; i < 100; i++ {
			cycle()
		}
	}
	if avg := testing.AllocsPerRun(20, batch); avg != 0 {
		t.Fatalf("idle → busy → idle allocates %.0f objects per 100 cycles, want 0", avg)
	}
	// FIFO order survives the compaction.
	var got []int
	for w, ok := r.popIdle(); ok; w, ok = r.popIdle() {
		got = append(got, w.id)
	}
	// Every cycle moved the head to the tail, so what is left is a
	// rotation of the join order.
	if len(got) != 4 {
		t.Fatalf("drained %v, want all four workers", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]%4+1 {
			t.Fatalf("drained %v, want a rotation of [1 2 3 4]", got)
		}
	}
}

// preallocAlg recycles one Solution so the allocation test isolates the
// protocol layer.
type preallocAlg struct {
	s core.Solution
}

func (a *preallocAlg) Suggest() *core.Solution                     { return &a.s }
func (a *preallocAlg) Accept(*core.Solution)                       {}
func (a *preallocAlg) AcceptSuggest(*core.Solution) *core.Solution { return &a.s }
