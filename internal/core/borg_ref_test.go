package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"borgmoea/internal/problems"
	"borgmoea/internal/rng"
)

// refBorg is the Borg whose restarts append to the injection queue
// (the implementation before restarts replaced it): its Suggest,
// Accept, checkRestart and restart verbatim, over a Borg's own state,
// except that the removed UM.Mutate is spelled as the Apply it was
// documented to equal (same child, same draws). It exists only as the
// oracle for the differential harness below. Until a restart fires
// while injections are still queued the two must agree on every
// offspring, the archive, the population and the RNG; from then on
// refBorg serves the stale batch and Borg the new one.
type refBorg struct{ *Borg }

func (b refBorg) Suggest() *Solution {
	if b.initRemaining > 0 {
		b.initRemaining--
		return b.randomSolution()
	}
	if b.pendingHead < len(b.pending) {
		s := b.pending[b.pendingHead]
		b.pending[b.pendingHead] = nil
		b.pendingHead++
		if 2*b.pendingHead >= len(b.pending) {
			// At least half the slice is spent: move the live tail
			// down. That is at most one move per pop, amortised, and
			// it keeps a backlog that restarts outpace (it never
			// drains at large P) from growing with the run.
			live := copy(b.pending, b.pending[b.pendingHead:])
			clear(b.pending[live:])
			b.pending, b.pendingHead = b.pending[:live], 0
		}
		return s
	}
	if b.pop.Size() == 0 {
		// All initial solutions are in flight (large worker counts):
		// keep workers busy with more random samples.
		return b.randomSolution()
	}

	opIdx := b.selectOperator()
	op := b.cfg.Operators[opIdx]
	b.opSelected[opIdx]++

	if cap(b.parents) < op.Arity() {
		b.parents = make([][]float64, op.Arity())
	}
	parents := b.parents[:op.Arity()]
	// One parent always comes from the archive (Borg's elitist
	// recombination); it is placed first, which the parent-centric
	// operators treat as the index parent.
	if b.arch.Size() > 0 {
		parents[0] = b.arch.Members()[b.rng.Intn(b.arch.Size())].Vars
	} else {
		parents[0] = b.pop.Tournament(b.tournamentSize, b.rng).Vars
	}
	for i := 1; i < len(parents); i++ {
		parents[i] = b.pop.Tournament(b.tournamentSize, b.rng).Vars
	}
	child := make([]float64, len(b.lo))
	op.Child(child, parents, b.lo, b.hi, b.rng, &b.opWork)
	b.nextID++
	return &Solution{Vars: child, Operator: opIdx, ID: b.nextID}
}

func (b refBorg) Accept(s *Solution) {
	if !s.Evaluated() {
		panic("core: Accept of unevaluated solution")
	}
	b.evaluations++
	b.pop.Add(s, b.rng)
	b.arch.Add(s)
	if b.evaluations-b.lastCheckEvals >= uint64(b.cfg.WindowSize) {
		b.checkRestart()
	}
}

func (b refBorg) checkRestart() {
	improved := b.arch.Improvements() - b.lastImprovements
	ratioTrigger := float64(b.arch.Size())*b.cfg.Gamma > 1.25*float64(b.pop.Capacity())
	b.lastCheckEvals = b.evaluations
	b.lastImprovements = b.arch.Improvements()
	if improved == 0 || ratioTrigger {
		b.restart()
	}
}

func (b refBorg) restart() {
	b.restarts++
	newCap := int(math.Round(b.cfg.Gamma * float64(b.arch.Size())))
	if newCap < b.cfg.InitialPopulationSize {
		newCap = b.cfg.InitialPopulationSize
	}
	b.pop.Clear()
	b.pop.SetCapacity(newCap, b.rng)
	for _, m := range b.arch.Members() {
		b.pop.Add(m, b.rng)
	}
	needed := newCap - b.pop.Size()
	for i := 0; i < needed; i++ {
		parent := b.arch.Members()[b.rng.Intn(b.arch.Size())]
		child := b.injectOp.Apply([][]float64{parent.Vars}, b.lo, b.hi, b.rng)[0]
		b.nextID++
		// Injections are uncredited (Operator -1) so restart noise
		// does not distort the operator-adaptation signal.
		b.pending = append(b.pending, &Solution{Vars: child, Operator: -1, ID: b.nextID})
	}
	b.tournamentSize = b.tournamentSizeFor(newCap)
}

// borgRun shapes one differential run: k offspring in flight, accepted
// in the given order (0 oldest first, 1 newest first, 2 at random).
type borgRun struct {
	seed   uint64
	k      int
	order  int
	window int
	evals  int
}

func (r borgRun) String() string {
	return fmt.Sprintf("seed=%d/k=%d/order=%d/window=%d", r.seed, r.k, r.order, r.window)
}

func (r borgRun) config() Config {
	return Config{Epsilons: UniformEpsilons(3, 0.05), WindowSize: r.window, Seed: r.seed}
}

// borgOutcome is what a differential run saw.
type borgOutcome struct {
	restarts uint64 // restarts in the whole run
	diverged int    // evaluations accepted before the first restart with a queue, -1 if none
}

// pickInFlight returns the index of the in-flight offspring to accept.
func pickInFlight(order, n int, r *rng.Source) int {
	switch order {
	case 1:
		return n - 1
	case 2:
		return r.Intn(n)
	}
	return 0
}

// diffBorg drives Borg and refBorg through the same Suggest/Accept
// interleaving. Until the first restart that fires with injections
// still queued it demands the same offspring (ID, operator, Vars bits),
// archive, population and RNG state; from then on it drives Borg alone
// and demands that the queue hold exactly the undrawn remainder of the
// last batch, never more than the population capacity, and that every
// injection Suggest serves belongs to that batch.
func diffBorg(t *testing.T, run borgRun) borgOutcome {
	t.Helper()
	prob := problems.NewDTLZ2(3)
	b := MustNew(prob, run.config())
	ref := refBorg{MustNew(prob, run.config())}
	pick := rng.New(run.seed ^ 0x6f72646572)
	var got, want []*Solution
	out := borgOutcome{diverged: -1}
	// batchFirst..batchFirst+batch-1 are the IDs of the last batch,
	// drawn of which Suggest has served.
	var batchFirst uint64
	batch, drawn := 0, 0
	for accepted := 0; accepted < run.evals; accepted++ {
		for len(got) < run.k {
			before := b.PendingInjections()
			s := b.Suggest()
			if b.PendingInjections() < before {
				drawn++
				if s.ID < batchFirst || s.ID >= batchFirst+uint64(batch) {
					t.Fatalf("%v: eval %d: served injection %d outside the last batch [%d, %d)",
						run, accepted, s.ID, batchFirst, batchFirst+uint64(batch))
				}
			}
			EvaluateSolution(prob, s)
			got = append(got, s)
			if out.diverged < 0 {
				w := ref.Suggest()
				EvaluateSolution(prob, w)
				want = append(want, w)
				sameOffspring(t, run, accepted, s, w)
			}
		}
		j := pickInFlight(run.order, len(got), pick)
		s := got[j]
		got = append(got[:j], got[j+1:]...)
		queued, restarts := b.PendingInjections(), b.Restarts()
		b.Accept(s)
		if out.diverged < 0 {
			w := want[j]
			want = append(want[:j], want[j+1:]...)
			ref.Accept(w)
			// Members are compared at every restart and every 16th
			// accept; the RNG and the counters after every accept.
			full := b.Restarts() > restarts || accepted%16 == 0
			sameState(t, run, accepted, b, ref.Borg, full)
		}
		if b.Restarts() > restarts {
			if queued > 0 && out.diverged < 0 {
				out.diverged = accepted
				want = nil
			}
			batch, drawn = b.PendingInjections(), 0
			batchFirst = b.nextID - uint64(batch) + 1
		}
		if p := b.PendingInjections(); p != batch-drawn || p > b.Population().Capacity() {
			t.Fatalf("%v: eval %d: %d injections queued, want the last batch's %d-%d undrawn, capacity %d",
				run, accepted, p, batch, drawn, b.Population().Capacity())
		}
	}
	out.restarts = b.Restarts()
	return out
}

func sameOffspring(t *testing.T, run borgRun, step int, s, w *Solution) {
	t.Helper()
	if s.ID != w.ID || s.Operator != w.Operator || !sameBits(s.Vars, w.Vars) {
		t.Fatalf("%v: eval %d: offspring %d/op %d %v, reference %d/op %d %v",
			run, step, s.ID, s.Operator, s.Vars, w.ID, w.Operator, w.Vars)
	}
}

// sameState compares everything of two Borgs a caller can observe, and
// the RNG, except the injection queue; the archive and population
// members only if full.
func sameState(t *testing.T, run borgRun, step int, b, ref *Borg, full bool) {
	t.Helper()
	if *b.rng != *ref.rng {
		t.Fatalf("%v: eval %d: RNG state diverged", run, step)
	}
	if b.nextID != ref.nextID || b.evaluations != ref.evaluations || b.restarts != ref.restarts ||
		b.tournamentSize != ref.tournamentSize {
		t.Fatalf("%v: eval %d: counters (id %d, evals %d, restarts %d, tournament %d), reference (%d, %d, %d, %d)",
			run, step, b.nextID, b.evaluations, b.restarts, b.tournamentSize,
			ref.nextID, ref.evaluations, ref.restarts, ref.tournamentSize)
	}
	if b.arch.Size() != ref.arch.Size() || b.arch.Improvements() != ref.arch.Improvements() ||
		!slices.Equal(b.arch.OperatorCounts(), ref.arch.OperatorCounts()) ||
		full && !sameMembers(b.arch.Members(), ref.arch.Members()) {
		t.Fatalf("%v: eval %d: archives differ", run, step)
	}
	if b.pop.Capacity() != ref.pop.Capacity() || b.pop.Size() != ref.pop.Size() ||
		full && !sameMembers(b.pop.Members(), ref.pop.Members()) {
		t.Fatalf("%v: eval %d: populations differ", run, step)
	}
}

func sameMembers(a, b []*Solution) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Operator != b[i].Operator ||
			!sameBits(a[i].Vars, b[i].Vars) || !sameBits(a[i].Objs, b[i].Objs) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBorgMatchesReference runs the differential harness over in-flight
// depths from serial (k = 1) to a P = 256 master, each accept order and
// three ε-progress windows. The grid must contain both kinds of run:
// restarts that never meet a queue (bit-identical throughout) and
// restarts that replace one.
func TestBorgMatchesReference(t *testing.T) {
	identical, replaced := 0, 0
	for _, k := range []int{1, 8, 64, 256} {
		for _, window := range []int{25, 100, 200} {
			for order := 0; order < 3; order++ {
				run := borgRun{seed: uint64(10*k + window + order), k: k, order: order, window: window, evals: 2000}
				t.Run(run.String(), func(t *testing.T) {
					out := diffBorg(t, run)
					switch {
					case out.diverged >= 0:
						replaced++
					case out.restarts > 0:
						identical++
					}
				})
			}
		}
	}
	if identical == 0 || replaced == 0 {
		t.Fatalf("%d runs restarted only with an empty queue and %d replaced one; want both kinds",
			identical, replaced)
	}
}

// FuzzBorgRestartEquivalence lets the fuzzer pick the seed, the number
// of offspring in flight (1–256), the accept order and the window.
func FuzzBorgRestartEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(100))
	f.Add(uint64(2), uint8(255), uint8(2), uint16(20))
	f.Add(uint64(3), uint8(63), uint8(1), uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, k, order uint8, window uint16) {
		diffBorg(t, borgRun{
			seed: seed, k: 1 + int(k), order: int(order % 3), window: 10 + int(window%300), evals: 1200,
		})
	})
}

// TestRestartLeavesHandedOutSolutions: Accept takes ownership, and a
// restart rewrites only storage nothing else holds. Across every
// restart, including those that replace a queue, each solution in
// flight and each current population or archive member keeps the
// Vars, ID and operator Suggest last returned it with, and the
// objectives it was evaluated to. A solution that was accepted and
// then left both structures may be rewritten, and the run must reuse
// some.
func TestRestartLeavesHandedOutSolutions(t *testing.T) {
	prob := problems.NewDTLZ2(3)
	b := MustNew(prob, Config{Epsilons: UniformEpsilons(3, 0.05), WindowSize: 25, Seed: 4})
	handed := make(map[*Solution]Solution) // each solution as Suggest last returned it
	var inFlight []*Solution
	replacing, reused := 0, 0
	for b.Evaluations() < 3000 {
		for len(inFlight) < 200 {
			s := b.Suggest()
			if _, ok := handed[s]; ok {
				reused++
			}
			EvaluateSolution(prob, s)
			inFlight = append(inFlight, s)
			handed[s] = Solution{
				Vars: append([]float64(nil), s.Vars...), Objs: append([]float64(nil), s.Objs...),
				Operator: s.Operator, ID: s.ID,
			}
		}
		queued, restarts := b.PendingInjections(), b.Restarts()
		b.Accept(inFlight[0])
		inFlight = inFlight[1:]
		if b.Restarts() == restarts {
			continue
		}
		if queued > 0 {
			replacing++
		}
		for _, s := range slices.Concat(inFlight, b.Population().Members(), b.Archive().Members()) {
			h, ok := handed[s]
			if !ok {
				t.Fatalf("restart %d: solution %d is held but Suggest never returned it", b.Restarts(), s.ID)
			}
			if s.ID != h.ID || s.Operator != h.Operator || !sameBits(s.Vars, h.Vars) || !sameBits(s.Objs, h.Objs) {
				t.Fatalf("restart %d rewrote held solution %d: %+v, was %+v", b.Restarts(), h.ID, *s, h)
			}
		}
	}
	if replacing == 0 {
		t.Fatal("no restart fired with injections queued")
	}
	if reused == 0 {
		t.Fatal("Suggest reused no released solution")
	}
}

// TestRestartReplacingQueueAllocatesNothing: a restart that drops at
// least as many undrawn injections as it queues writes the new batch
// into their storage. Back-to-back restarts over one archive queue the
// same count each time, so the second and later allocate nothing.
func TestRestartReplacingQueueAllocatesNothing(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(5), dtlz2Config(5, 7))
	b.Run(3000, nil)
	b.restart()
	n := b.PendingInjections()
	if n == 0 {
		t.Fatal("restart queued no injections")
	}
	if a := testing.AllocsPerRun(20, b.restart); a != 0 {
		t.Fatalf("a restart replacing %d undrawn injections allocates %v objects, want 0", n, a)
	}
	if got := b.PendingInjections(); got != n {
		t.Fatalf("%d injections queued after replacing restarts, want %d", got, n)
	}
}
