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
// and Solution under a fresh id, with trace context cleared.
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
	if reissued.Trace.Sampled() {
		t.Fatal("reissued item kept the old trace context")
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

// preallocAlg recycles one Solution so the allocation test isolates the
// protocol layer.
type preallocAlg struct {
	s core.Solution
}

func (a *preallocAlg) Suggest() *core.Solution                     { return &a.s }
func (a *preallocAlg) Accept(*core.Solution)                       {}
func (a *preallocAlg) AcceptSuggest(*core.Solution) *core.Solution { return &a.s }
