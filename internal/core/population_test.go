package core

import (
	"testing"

	"borgmoea/internal/rng"
)

func TestPopulationAddBelowCapacity(t *testing.T) {
	p := NewPopulation(3)
	r := rng.New(1)
	for i := 0; i < 3; i++ {
		if !p.Add(sol(float64(i), float64(3-i)), r) {
			t.Fatal("add below capacity rejected")
		}
	}
	if p.Size() != 3 {
		t.Fatalf("size = %d, want 3", p.Size())
	}
}

func TestPopulationSteadyStateRejectsDominated(t *testing.T) {
	p := NewPopulation(2)
	r := rng.New(2)
	p.Add(sol(0.1, 0.1), r)
	p.Add(sol(0.2, 0.2), r)
	if p.Add(sol(0.9, 0.9), r) {
		t.Fatal("dominated offspring accepted at capacity")
	}
	if p.Size() != 2 {
		t.Fatalf("size changed: %d", p.Size())
	}
}

func TestPopulationSteadyStateReplacesDominated(t *testing.T) {
	p := NewPopulation(2)
	r := rng.New(3)
	p.Add(sol(0.4, 0.6), r)
	p.Add(sol(0.9, 0.9), r)
	if !p.Add(sol(0.5, 0.5), r) {
		t.Fatal("offspring dominating a member rejected")
	}
	// (0.9, 0.9) must be gone; (0.4, 0.6) must survive.
	for _, m := range p.Members() {
		if m.Objs[0] == 0.9 {
			t.Fatal("dominated member survived replacement")
		}
	}
	if p.Size() != 2 {
		t.Fatalf("size = %d, want 2", p.Size())
	}
}

func TestPopulationSteadyStateNondominatedReplacesRandom(t *testing.T) {
	p := NewPopulation(2)
	r := rng.New(4)
	p.Add(sol(0.1, 0.9), r)
	p.Add(sol(0.9, 0.1), r)
	if !p.Add(sol(0.5, 0.5), r) {
		t.Fatal("mutually nondominated offspring rejected")
	}
	if p.Size() != 2 {
		t.Fatalf("size = %d, want 2 (replacement, not growth)", p.Size())
	}
	found := false
	for _, m := range p.Members() {
		if m.Objs[0] == 0.5 {
			found = true
		}
	}
	if !found {
		t.Fatal("nondominated offspring not inserted")
	}
}

func TestTournamentPrefersDominant(t *testing.T) {
	p := NewPopulation(10)
	r := rng.New(5)
	best := sol(0.0, 0.0)
	p.Add(best, r)
	for i := 0; i < 9; i++ {
		p.Add(sol(0.5+float64(i)*0.01, 0.5+float64(i)*0.01), r)
	}
	// Tournament draws are with replacement: k=30 over 10 members
	// picks the dominant one with probability 1-0.9^30 ≈ 0.96.
	wins := 0
	for i := 0; i < 200; i++ {
		if p.Tournament(30, r) == best {
			wins++
		}
	}
	if wins < 170 {
		t.Fatalf("dominant member won only %d/200 large tournaments", wins)
	}
}

func TestTournamentSizeOneIsUniform(t *testing.T) {
	p := NewPopulation(4)
	r := rng.New(6)
	for i := 0; i < 4; i++ {
		p.Add(sol(float64(i), float64(4-i)), r)
	}
	counts := map[*Solution]int{}
	for i := 0; i < 8000; i++ {
		counts[p.Tournament(1, r)]++
	}
	for s, c := range counts {
		if c < 1700 || c > 2300 {
			t.Fatalf("member %v selected %d/8000 times under k=1", s.Objs, c)
		}
	}
}

func TestTournamentPanicsOnEmpty(t *testing.T) {
	p := NewPopulation(3)
	defer func() {
		if recover() == nil {
			t.Fatal("tournament on empty population did not panic")
		}
	}()
	p.Tournament(2, rng.New(1))
}

func TestSetCapacityEvicts(t *testing.T) {
	p := NewPopulation(10)
	r := rng.New(7)
	for i := 0; i < 10; i++ {
		p.Add(sol(float64(i), float64(10-i)), r)
	}
	p.SetCapacity(4, r)
	if p.Size() != 4 || p.Capacity() != 4 {
		t.Fatalf("size/capacity = %d/%d, want 4/4", p.Size(), p.Capacity())
	}
}

func TestSetCapacityGrow(t *testing.T) {
	p := NewPopulation(2)
	r := rng.New(8)
	p.Add(sol(1, 1), r)
	p.SetCapacity(5, r)
	if p.Capacity() != 5 || p.Size() != 1 {
		t.Fatalf("grow broke population: size=%d cap=%d", p.Size(), p.Capacity())
	}
}

func TestClear(t *testing.T) {
	p := NewPopulation(3)
	r := rng.New(9)
	p.Add(sol(1, 1), r)
	p.Clear()
	if p.Size() != 0 || p.Capacity() != 3 {
		t.Fatal("Clear broke population")
	}
}

// TestClearReleasesMembers: a restart must not keep the old generation
// reachable through the slots beyond the truncated length.
func TestClearReleasesMembers(t *testing.T) {
	p := NewPopulation(4)
	r := rng.New(10)
	for i := 0; i < 4; i++ {
		p.Add(sol(float64(i), float64(4-i)), r)
	}
	p.Clear()
	for i, m := range p.Members()[:4] {
		if m != nil {
			t.Fatalf("slot %d still holds %v after Clear", i, m.Objs)
		}
	}
	// A cleared population takes its objective count from the next
	// first member.
	p.Add(sol(1, 2, 3), r)
	p.Add(sol(3, 2, 1), r)
}

func TestPopulationAddObjectiveCountMismatchPanics(t *testing.T) {
	for _, objs := range [][]float64{{1}, {1, 2, 3}} {
		p := NewPopulation(2)
		p.Add(sol(1, 2), rng.New(1))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("adding %d objectives to 2-objective members did not panic", len(objs))
				}
			}()
			p.Add(sol(objs...), rng.New(1))
		}()
	}
}

func TestPopulationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPopulation(0) did not panic")
		}
	}()
	NewPopulation(0)
}

func TestPopulationAddUnevaluatedPanics(t *testing.T) {
	p := NewPopulation(2)
	defer func() {
		if recover() == nil {
			t.Fatal("unevaluated Add did not panic")
		}
	}()
	p.Add(&Solution{Vars: []float64{1}}, rng.New(1))
}
