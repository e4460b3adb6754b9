package core

import (
	"fmt"
	"math"
	"testing"

	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
)

// TestRecycledOnlyAfterRelease drives a Borg with k offspring in flight,
// accepted in random order, and after every Accept checks its free list
// against what the caller and the Borg still hold: no entry is a
// population or archive member, in flight, a queued injection, or a
// solution the Borg did not mint. Beside its own offspring the Borg is
// fed what a master also feeds it: a clone accepted in place of a lost
// lease's original, which the straggler keeps, and migrants the caller
// built, through InjectEvaluated. Every solution's membership count
// must match its memberships, and the run must reuse storage.
func TestRecycledOnlyAfterRelease(t *testing.T) {
	prob := problems.NewDTLZ2(3)
	for _, k := range []int{1, 64, 256} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			b := MustNew(prob, Config{Epsilons: UniformEpsilons(3, 0.05), WindowSize: 50, Seed: uint64(k)})
			r := rng.New(uint64(k) ^ 0x6f776e)
			handed := make(map[*Solution]bool)  // every solution Suggest returned
			held := make(map[*Solution]bool)    // in flight, or kept by a straggler
			foreign := make(map[*Solution]bool) // clones and migrants
			var inFlight []*Solution
			reused := 0
			for b.Evaluations() < 2000 {
				for len(inFlight) < k {
					s := b.Suggest()
					if handed[s] {
						reused++
					}
					handed[s], held[s] = true, true
					EvaluateSolution(prob, s)
					inFlight = append(inFlight, s)
				}
				j := r.Intn(len(inFlight))
				s := inFlight[j]
				inFlight[j] = inFlight[len(inFlight)-1]
				inFlight = inFlight[:len(inFlight)-1]
				switch r.Intn(20) {
				case 0:
					// A lost lease: the master accepts a clone; the
					// straggler keeps the original.
					c := s.Clone()
					foreign[c] = true
					b.Accept(c)
				case 1:
					m := &Solution{Vars: make([]float64, prob.NumVars()), Operator: -1}
					for i := range m.Vars {
						m.Vars[i] = r.Float64()
					}
					EvaluateSolution(prob, m)
					foreign[m] = true
					b.InjectEvaluated(m)
					delete(held, s)
					b.Accept(s)
				default:
					delete(held, s)
					b.Accept(s)
				}
				checkFreeList(t, b, held, foreign)
			}
			if reused == 0 {
				t.Fatal("Suggest reused no released solution")
			}
		})
	}
}

// checkFreeList fails if b's free list holds a member, a held or queued
// solution, one b did not mint or one still evaluated (or, in
// poisonsolutions builds, not poisoned), or if a membership count is
// off.
func checkFreeList(t *testing.T, b *Borg, held, foreign map[*Solution]bool) {
	t.Helper()
	members := make(map[*Solution]int)
	for _, m := range b.Population().Members() {
		members[m]++
	}
	for _, m := range b.Archive().Members() {
		members[m]++
	}
	queued := make(map[*Solution]bool)
	for _, s := range b.pending[b.pendingHead:] {
		queued[s] = true
	}
	for _, s := range b.free.sols {
		switch {
		case members[s] > 0:
			t.Fatalf("eval %d: free-list entry %d is a member", b.Evaluations(), s.ID)
		case held[s]:
			t.Fatalf("eval %d: free-list entry %d is in flight", b.Evaluations(), s.ID)
		case queued[s]:
			t.Fatalf("eval %d: free-list entry %d is a queued injection", b.Evaluations(), s.ID)
		case foreign[s] || s.owner != b.free.mark:
			t.Fatalf("eval %d: free-list entry %d was not minted by this Borg", b.Evaluations(), s.ID)
		case s.Evaluated():
			t.Fatalf("eval %d: free-list entry %d is still evaluated", b.Evaluations(), s.ID)
		case poisonSolutions && !math.IsNaN(s.Vars[0]):
			t.Fatalf("eval %d: free-list entry %d is not poisoned", b.Evaluations(), s.ID)
		}
	}
	for m, n := range members {
		want := n
		if m.owner != b.free.mark {
			want = 0
		}
		if int(m.refs) != want {
			t.Fatalf("eval %d: member %d counts %d memberships, want %d", b.Evaluations(), m.ID, m.refs, want)
		}
	}
}

// TestStepSteadyStateAllocatesNothing: once the run is past its first
// restarts and its live set has stopped growing, a serial step —
// Suggest, evaluate, Accept — writes each offspring and its objectives
// into released storage. The count is exact: every allocation in 2 000
// steps, not a per-step average rounded down.
func TestStepSteadyStateAllocatesNothing(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), dtlz2Config(3, 1))
	b.Run(20_000, nil)
	if b.Restarts() == 0 {
		t.Fatal("no restart in the warm-up")
	}
	steps := func() {
		for i := 0; i < 2000; i++ {
			b.Step()
		}
	}
	if a := testing.AllocsPerRun(1, steps); a != 0 {
		t.Fatalf("2 000 steady-state steps allocate %v objects, want 0", a)
	}
}
