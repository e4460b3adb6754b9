package core

import (
	"bytes"
	"testing"

	"borgmoea/internal/problems"
)

// driveInFlight runs b for steps evaluations with k offspring in
// flight, accepted first in, first out, and hands each one Suggest
// returned to visit before it is evaluated. The offspring still in
// flight at the end are dropped.
func driveInFlight(b *Borg, steps, k int, visit func(*Solution)) {
	var inFlight []*Solution
	for done := 0; done < steps; done++ {
		for len(inFlight) < k {
			s := b.Suggest()
			if visit != nil {
				visit(s)
			}
			EvaluateSolution(b.Problem(), s)
			inFlight = append(inFlight, s)
		}
		b.Accept(inFlight[0])
		inFlight = inFlight[1:]
	}
}

// retiredBorg returns a Borg that has run problem p until it has
// restarted and still holds undrawn restart injections, and the
// solutions it minted that are members of its population or archive or
// queued.
func retiredBorg(t *testing.T, p problems.Problem, cfg Config) (*Borg, map[*Solution]bool) {
	t.Helper()
	b := MustNew(p, cfg)
	for b.Restarts() == 0 || b.PendingInjections() == 0 {
		if b.Evaluations() > 200_000 {
			t.Fatalf("%s: no restart left injections queued in %d evaluations", p.Name(), b.Evaluations())
		}
		driveInFlight(b, 100, 64, nil)
	}
	owned := make(map[*Solution]bool)
	for _, s := range b.pop.members {
		owned[s] = true
	}
	for _, s := range b.arch.Members() {
		owned[s] = true
	}
	for _, s := range b.pending[b.pendingHead:] {
		owned[s] = true
	}
	return b, owned
}

// TestReuseMatchesNew: a Borg Reset onto problem B after a run of
// problem A that restarted and left injections queued behaves as
// New(B) bit for bit over 5 000 evaluations with offspring in flight:
// every offspring's ID, operator and Vars, the archive document, the
// restart count and the operator probabilities. With A's variable count
// the reset Borg mints B's offspring from A's storage; with another it
// mints none from it.
func TestReuseMatchesNew(t *testing.T) {
	cases := []struct {
		name     string
		a, b     problems.Problem
		epsA     float64
		epsB     float64
		keepsOld bool
	}{
		{"same variables", problems.NewDTLZ2(3), problems.NewDTLZ2(3), 0.05, 0.05, true},
		{"other variable count", problems.NewDTLZ2(5), problems.NewDTLZ2(3), 0.1, 0.05, false},
		{"other objective count and epsilon", problems.NewDTLZ2(4), problems.NewDTLZ(1, 9), 0.05, 0.2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgA := Config{Epsilons: UniformEpsilons(tc.a.NumObjs(), tc.epsA), WindowSize: 100, Seed: 3}
			cfgB := Config{Epsilons: UniformEpsilons(tc.b.NumObjs(), tc.epsB), Seed: 11}
			reused, owned := retiredBorg(t, tc.a, cfgA)
			if err := reused.Reset(tc.b, cfgB); err != nil {
				t.Fatal(err)
			}
			fresh := MustNew(tc.b, cfgB)

			type offspring struct {
				id   uint64
				op   int
				vars []float64
			}
			var want []offspring
			driveInFlight(fresh, 5000, 16, func(s *Solution) {
				want = append(want, offspring{s.ID, s.Operator, append([]float64(nil), s.Vars...)})
			})
			n, fromOld := 0, 0
			driveInFlight(reused, 5000, 16, func(s *Solution) {
				if owned[s] {
					fromOld++
				}
				if n >= len(want) {
					t.Fatalf("reused Borg suggested more than %d offspring", len(want))
				}
				w := want[n]
				if s.ID != w.id || s.Operator != w.op || !sameBits(s.Vars, w.vars) {
					t.Fatalf("offspring %d: id %d op %d %v, New's id %d op %d %v",
						n, s.ID, s.Operator, s.Vars, w.id, w.op, w.vars)
				}
				n++
			})
			if n != len(want) {
				t.Fatalf("reused Borg suggested %d offspring, New's %d", n, len(want))
			}
			switch {
			case tc.keepsOld && fromOld == 0:
				t.Error("the reset Borg minted nothing from the storage it kept")
			case !tc.keepsOld && fromOld != 0:
				t.Errorf("the reset Borg minted %d offspring from storage of another variable count", fromOld)
			}
			if fresh.Restarts() == 0 {
				t.Error("the run on B never restarted")
			}
			if reused.Restarts() != fresh.Restarts() {
				t.Errorf("restarts %d, New's %d", reused.Restarts(), fresh.Restarts())
			}
			if !sameBits(reused.OperatorProbabilities(), fresh.OperatorProbabilities()) {
				t.Errorf("operator probabilities %v, New's %v", reused.OperatorProbabilities(), fresh.OperatorProbabilities())
			}
			var got, wantDoc bytes.Buffer
			if err := SaveArchive(&got, reused.Archive()); err != nil {
				t.Fatal(err)
			}
			if err := SaveArchive(&wantDoc, fresh.Archive()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), wantDoc.Bytes()) {
				t.Error("archive documents differ")
			}
		})
	}
}

// TestReuseRejectedConfigLeavesBorg: a configuration Reset rejects
// leaves the Borg running its former problem.
func TestReuseRejectedConfigLeavesBorg(t *testing.T) {
	p := problems.NewDTLZ2(3)
	b := MustNew(p, dtlz2Config(3, 1))
	b.Run(500, nil)
	size, evals := b.Archive().Size(), b.Evaluations()
	if err := b.Reset(p, Config{Epsilons: []float64{0.1}}); err == nil {
		t.Fatal("Reset accepted 1 epsilon for 3 objectives")
	}
	if b.Archive().Size() != size || b.Evaluations() != evals || b.Problem() != p {
		t.Fatal("a rejected Reset changed the Borg")
	}
	b.Run(1000, nil)
}
