package master

import (
	"testing"

	"borgmoea/internal/core"
)

// stubAlg is a deterministic stand-in optimizer: Suggest hands out
// solutions numbered 1, 2, 3, … in Vars[0]; Accept records what came
// back, in order.
type stubAlg struct {
	suggested int
	accepted  []float64
}

func (a *stubAlg) Suggest() *core.Solution {
	a.suggested++
	return &core.Solution{Vars: []float64{float64(a.suggested)}}
}

func (a *stubAlg) Accept(s *core.Solution) { a.accepted = append(a.accepted, s.Vars[0]) }

func (a *stubAlg) AcceptSuggest(s *core.Solution) *core.Solution {
	a.Accept(s)
	return a.Suggest()
}

func wantGrant(t *testing.T, acts []Action, i, worker int, item uint64) {
	t.Helper()
	if i >= len(acts) {
		t.Fatalf("want action %d to be a grant, have only %d actions", i, len(acts))
	}
	a := acts[i]
	if a.Kind != ActGrant || a.Worker != worker || a.Item.ID != item {
		t.Fatalf("action %d = {%v worker=%d item=%d}, want grant worker=%d item=%d",
			i, a.Kind, a.Worker, a.Item.ID, worker, item)
	}
}

func TestEagerSeedAndSteadyState(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 4, Policy: EagerOffspring, Alg: alg})

	// Each join seeds its worker with one fresh offspring.
	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	wantGrant(t, acts, 0, 1, 1)
	acts = c.Handle(Event{Kind: EvJoin, Worker: 2})
	wantGrant(t, acts, 0, 2, 2)

	// Each result grants the next offspring straight back.
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	wantGrant(t, acts, 0, 1, 3)
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 2})
	wantGrant(t, acts, 0, 2, 4)
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 3})
	wantGrant(t, acts, 0, 1, 5)
	if c.Completed() != 3 || c.Done() {
		t.Fatalf("completed=%d done=%v, want 3 and running", c.Completed(), c.Done())
	}

	// The budget-reaching result completes the run: T_P stamp first,
	// then one stop per non-gone worker in join order, and no grant.
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 4})
	if len(acts) != 3 || acts[0].Kind != ActComplete ||
		acts[1] != (Action{Kind: ActStop, Worker: 1}) ||
		acts[2] != (Action{Kind: ActStop, Worker: 2}) {
		t.Fatalf("completion actions = %v, want [complete stop(1) stop(2)]", acts)
	}
	if !c.Done() || c.Completed() != 4 {
		t.Fatalf("done=%v completed=%d, want done with 4", c.Done(), c.Completed())
	}
	// After completion the machine is inert.
	if acts := c.Handle(Event{Kind: EvResult, Worker: 1, Item: 5}); acts != nil {
		t.Fatalf("Handle after done = %v, want nil", acts)
	}
}

func TestLazyNeverOverIssues(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 2, Policy: LazyOffspring, Alg: alg})

	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	wantGrant(t, acts, 0, 1, 1)
	acts = c.Handle(Event{Kind: EvJoin, Worker: 2})
	wantGrant(t, acts, 0, 2, 2)

	// First accept: one chain done, one live — issuing more would
	// overshoot the budget, so worker 1 stays idle.
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	if len(acts) != 0 {
		t.Fatalf("actions after non-final accept at full budget = %v, want none", acts)
	}
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 2})
	if len(acts) != 3 || acts[0].Kind != ActComplete {
		t.Fatalf("completion actions = %v", acts)
	}
	if alg.suggested != 2 {
		t.Fatalf("suggested %d offspring for a budget of 2", alg.suggested)
	}
}

func TestHelloLosesLeaseAndResubmits(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 3, Policy: EagerOffspring, Alg: alg})
	c.Handle(Event{Kind: EvJoin, Worker: 1}) // grants item 1

	// The worker crashed and recovered: its lease died with it; the
	// clone is reissued immediately (the worker is idle again).
	acts := c.Handle(Event{Kind: EvHello, Worker: 1})
	wantGrant(t, acts, 0, 1, 2)
	st := c.Stats()
	if st.Lost != 1 || st.Resubmissions != 1 || st.Hellos != 1 {
		t.Fatalf("stats after hello = %+v, want 1 lost/resub/hello", st)
	}

	// The late original is a duplicate: the chain already has a new id.
	c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	if st := c.Stats(); st.Duplicates != 1 || st.Completed != 0 {
		t.Fatalf("stats after late original = %+v, want 1 duplicate, 0 completed", st)
	}
	// The clone's result is the real one, and it carries the same
	// solution content (Vars) as the lost original.
	if _, item, ok := c.Lease(2); !ok || item.S.Vars[0] != 1 {
		t.Fatalf("lease 2 = (%v, %v), want the clone of offspring 1", item, ok)
	}
	c.Handle(Event{Kind: EvResult, Worker: 1, Item: 2})
	if st := c.Stats(); st.Completed != 1 {
		t.Fatalf("completed = %d, want 1", st.Completed)
	}
	if alg.accepted[0] != 1 {
		t.Fatalf("accepted %v, want the original offspring's content", alg.accepted)
	}
}

func TestExpiryMarksSuspectAndProbes(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 4, LeaseTimeout: 10, Policy: EagerOffspring, Alg: alg})
	c.Handle(Event{Kind: EvJoin, Worker: 1, At: 0}) // item 1, deadline 10
	c.Handle(Event{Kind: EvJoin, Worker: 2, At: 1}) // item 2, deadline 11

	if dl, ok := c.NextDeadline(); !ok || dl != 10 {
		t.Fatalf("NextDeadline = (%v, %v), want (10, true)", dl, ok)
	}

	// Both leases expire; with every worker suspect and no live work,
	// the clones go out as bounded last-resort probes, in join order.
	acts := c.Handle(Event{Kind: EvTick, At: 12})
	st := c.Stats()
	if st.Expiries != 2 || st.Lost != 2 {
		t.Fatalf("stats after tick = %+v, want 2 expiries and losses", st)
	}
	wantGrant(t, acts, 0, 1, 3)
	wantGrant(t, acts, 1, 2, 4)

	// The probes expire unanswered: a second round goes out, the last
	// DefaultMaxProbes allows.
	acts = c.Handle(Event{Kind: EvTick, At: 30})
	wantGrant(t, acts, 0, 1, 5)
	wantGrant(t, acts, 1, 2, 6)

	// Probe budget is spent: another expiry round has nowhere to go.
	acts = c.Handle(Event{Kind: EvTick, At: 50})
	if len(acts) != 0 || c.PendingLen() != 2 {
		t.Fatalf("acts=%v pending=%d, want no actions and 2 stranded items", acts, c.PendingLen())
	}

	// A sign of life refills the probe budget: the late original result
	// is discarded as a duplicate, but its sender is alive and idle
	// again, so a stranded item is dispatched to it normally.
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	if st := c.Stats(); st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want 1 duplicate", st)
	}
	wantGrant(t, acts, 0, 1, 7)
}

func TestGoneRetiresAndDrainStops(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 2, Policy: EagerOffspring, Alg: alg})
	c.Handle(Event{Kind: EvJoin, Worker: 1}) // item 1
	c.Handle(Event{Kind: EvJoin, Worker: 2}) // item 2

	// Worker 1's transport died: its chain is cloned, but worker 2 is
	// busy, so the clone waits in pending.
	acts := c.Handle(Event{Kind: EvGone, Worker: 1})
	if len(acts) != 0 || c.PendingLen() != 1 {
		t.Fatalf("acts=%v pending=%d after gone", acts, c.PendingLen())
	}
	if st := c.Stats(); st.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", st.Deaths)
	}

	// Worker 2's result dispatches the clone ahead of fresh offspring.
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 2})
	wantGrant(t, acts, 0, 2, 3)
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 3})
	// Completion stops only the surviving worker.
	if len(acts) != 2 || acts[0].Kind != ActComplete || acts[1] != (Action{Kind: ActStop, Worker: 2}) {
		t.Fatalf("completion actions = %v, want [complete stop(2)]", acts)
	}
}

func TestReconnectReplaceRetiresOldIncarnation(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 4, Policy: EagerOffspring, Alg: alg})
	c.Handle(Event{Kind: EvJoin, Worker: 7}) // item 1

	// The same identity joins again (TCP reconnect): the old
	// incarnation's work died with it, and the new one is seeded.
	acts := c.Handle(Event{Kind: EvJoin, Worker: 7})
	st := c.Stats()
	if st.Deaths != 1 || st.Joins != 2 || st.Lost != 1 {
		t.Fatalf("stats after replace = %+v", st)
	}
	wantGrant(t, acts, 0, 7, 3) // fresh seed (id 2 is the clone in pending)
	if c.PendingLen() != 1 {
		t.Fatalf("pending = %d, want the lost chain's clone", c.PendingLen())
	}
}

func TestLeaseHeapOrdering(t *testing.T) {
	h := &leaseHeap{}
	deadlines := []float64{5, 1, 3, 1, 9, 2, 7}
	leases := make([]*lease, len(deadlines))
	for i, d := range deadlines {
		leases[i] = &lease{deadline: d, seq: uint64(i)}
		h.push(leases[i])
	}
	h.remove(leases[2]) // settled before expiry: it leaves the heap at once
	if leases[2].idx != -1 || h.len() != len(deadlines)-1 {
		t.Fatalf("remove left idx=%d len=%d", leases[2].idx, h.len())
	}
	for i, l := range h.q {
		if l.idx != i {
			t.Fatalf("heap slot %d holds a lease indexed %d", i, l.idx)
		}
	}

	want := []struct {
		deadline float64
		seq      uint64
	}{{1, 1}, {1, 3}, {2, 5}, {5, 0}, {7, 6}, {9, 4}}
	for i, w := range want {
		l, ok := h.peek()
		if !ok {
			t.Fatalf("peek %d: heap empty early", i)
		}
		if l.deadline != w.deadline || l.seq != w.seq {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, l.deadline, l.seq, w.deadline, w.seq)
		}
		h.pop()
	}
	if _, ok := h.peek(); ok || h.len() != 0 {
		t.Fatalf("heap not drained: len=%d", h.len())
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Join(1)
	r.Join(2)
	r.Join(1) // live re-join is a no-op
	if r.Live() != 2 || r.Peak() != 2 {
		t.Fatalf("live=%d peak=%d, want 2/2", r.Live(), r.Peak())
	}
	if got := r.Known(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Known() = %v, want join order [1 2]", got)
	}
	r.MarkSuspect(1)
	if r.State(1) != StateSuspect || r.State(2) != StateBusy {
		t.Fatalf("states = %v/%v", r.State(1), r.State(2))
	}
	r.MarkIdle(1) // sign of life revives a suspect
	if r.State(1) != StateIdle {
		t.Fatalf("state after revive = %v", r.State(1))
	}
	if r.markGone(2); r.Live() != 1 {
		t.Fatalf("live after gone = %d", r.Live())
	}
	if r.State(99) != StateGone {
		t.Fatalf("unknown worker state = %v, want gone", r.State(99))
	}
}

// TestOnAcceptFromReportsAcceptedResults: OnAccept hears every
// accepted result, from whichever worker, with the new completed count
// and the result's timestamp, and never a duplicate.
func TestOnAcceptFromReportsAcceptedResults(t *testing.T) {
	for _, policy := range []Policy{EagerOffspring, LazyOffspring} {
		type accept struct {
			completed uint64
			at        float64
		}
		var got []accept
		alg := &stubAlg{}
		c := NewCore(Config{Budget: 3, Policy: policy, Alg: alg,
			OnAccept: func(completed uint64, at float64) {
				got = append(got, accept{completed, at})
			}})
		c.Handle(Event{Kind: EvJoin, Worker: 1, At: 0}) // item 1
		c.Handle(Event{Kind: EvJoin, Worker: 2, At: 0}) // item 2

		c.Handle(Event{Kind: EvResult, Worker: 2, Item: 2, At: 1.5})
		c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1, At: 2.0})
		// A duplicate id must not be reported as an accept.
		c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1, At: 2.1})

		want := []accept{{1, 1.5}, {2, 2.0}}
		// Eager policy has a third chain in flight; finish the run and
		// confirm the final accept is reported too.
		if policy == EagerOffspring {
			c.Handle(Event{Kind: EvResult, Worker: 2, Item: 3, At: 3.0})
			want = append(want, accept{3, 3.0})
		}
		if len(got) != len(want) {
			t.Fatalf("policy %v: %d accepts reported, want %d: %v", policy, len(got), len(want), got)
		}
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("policy %v: accept %d = %+v, want %+v", policy, i, got[i], w)
			}
		}
	}
}

func TestScheduledParkAndReady(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 4, Policy: ScheduledOffspring, Alg: alg})

	// Joining grants immediately: the scheduler only joins a worker it
	// wants serving this run.
	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	wantGrant(t, acts, 0, 1, 1)

	// A result is accepted but the worker parks — no re-grant until the
	// scheduler speaks for it.
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	if len(acts) != 0 {
		t.Fatalf("result actions = %v, want none (worker parks)", acts)
	}
	if c.Completed() != 1 || c.Outstanding() != 0 {
		t.Fatalf("completed=%d outstanding=%d, want 1 and 0", c.Completed(), c.Outstanding())
	}

	// Ready re-arms the parked worker.
	acts = c.Handle(Event{Kind: EvReady, Worker: 1})
	wantGrant(t, acts, 0, 1, 2)

	// Ready while leased, or for an unknown worker, is ignored.
	if acts := c.Handle(Event{Kind: EvReady, Worker: 1}); len(acts) != 0 {
		t.Fatalf("ready on a leased worker issued %v", acts)
	}
	if acts := c.Handle(Event{Kind: EvReady, Worker: 9}); len(acts) != 0 {
		t.Fatalf("ready on an unknown worker issued %v", acts)
	}
}

func TestScheduledLeaveResubmitsAndCompletes(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 4, Policy: ScheduledOffspring, Alg: alg})
	c.Handle(Event{Kind: EvJoin, Worker: 1}) // grants item 1
	c.Handle(Event{Kind: EvJoin, Worker: 2}) // grants item 2

	// Leaving with a live lease presumes it lost: the clone is pended,
	// counted as a graceful leave, not a death.
	if acts := c.Handle(Event{Kind: EvLeave, Worker: 2}); len(acts) != 0 {
		t.Fatalf("leave with no idle workers issued %v", acts)
	}
	st := c.Stats()
	if st.Leaves != 1 || st.Deaths != 0 || st.Resubmissions != 1 {
		t.Fatalf("stats after leave = %+v, want 1 leave, 0 deaths, 1 resubmission", st)
	}
	if c.PendingLen() != 1 {
		t.Fatalf("pending=%d, want the lost clone", c.PendingLen())
	}

	// The parked worker's next ready picks the resubmitted clone first.
	c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	acts := c.Handle(Event{Kind: EvReady, Worker: 1})
	wantGrant(t, acts, 0, 1, 3)

	// The departed worker rejoins and serves again.
	acts = c.Handle(Event{Kind: EvJoin, Worker: 2})
	wantGrant(t, acts, 0, 2, 4)
	c.Handle(Event{Kind: EvLeave, Worker: 2})
	if got := c.Stats().Leaves; got != 2 {
		t.Fatalf("leaves=%d, want 2", got)
	}
	// Leaving an already-gone worker is a no-op.
	c.Handle(Event{Kind: EvLeave, Worker: 2})
	if got := c.Stats().Leaves; got != 2 {
		t.Fatalf("leaves=%d after redundant leave, want 2", got)
	}

	// Worker 1 carries the run home; completion stops it (worker 2 is
	// gone) with the usual complete-then-stop ordering.
	c.Handle(Event{Kind: EvResult, Worker: 1, Item: 3})
	c.Handle(Event{Kind: EvReady, Worker: 1}) // grants the clone of item 4
	c.Handle(Event{Kind: EvResult, Worker: 1, Item: 5})
	c.Handle(Event{Kind: EvReady, Worker: 1}) // grants fresh item 6
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 6})
	if len(acts) != 2 || acts[0].Kind != ActComplete || acts[1] != (Action{Kind: ActStop, Worker: 1}) {
		t.Fatalf("completion actions = %v, want [complete stop(1)]", acts)
	}
	if !c.Done() || c.Completed() != 4 {
		t.Fatalf("done=%v completed=%d, want done with 4", c.Done(), c.Completed())
	}
}
