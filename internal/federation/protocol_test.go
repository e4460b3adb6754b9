package federation_test

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"borgmoea/internal/core"
	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/wire"
)

// island is one Migration with no transport under it: island 1 of a
// three-island ring (predecessor 0) exchanging every 10 accepts.
type island struct {
	mig            *federation.Migration
	b              *core.Borg
	log            *federation.MigrantLog
	sent           *obs.Counter
	enters, leaves int
}

func newIsland(t *testing.T) *island {
	t.Helper()
	problem := problems.NewDTLZ2(3)
	b, err := core.New(problem, core.Config{Epsilons: core.UniformEpsilons(3, 0.1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	isl := &island{b: b, log: federation.NewMigrantLog(), sent: obs.NewRegistry().Counter("migrants")}
	alg := &master.Bracket{Algorithm: b, Enter: func() { isl.enters++ }, Leave: func(bool) { isl.leaves++ }}
	isl.mig = federation.NewMigration(7, 1, 3, 10, b, alg, isl.log, isl.sent)
	// An epoch opens only after accepts, so the archive the emigrant is
	// drawn from is never empty.
	b.Accept(isl.accepted())
	return isl
}

// accepted is an evaluated solution on the DTLZ2 front.
func (isl *island) accepted() *core.Solution {
	s := &core.Solution{Vars: make([]float64, isl.b.Problem().NumVars())}
	for i := range s.Vars {
		s.Vars[i] = 0.5
	}
	core.EvaluateSolution(isl.b.Problem(), s)
	return s
}

// migrant is the predecessor's frame for epoch, as a transport decodes it.
func (isl *island) migrant(epoch uint64) *wire.Migrant {
	s := isl.accepted()
	return &wire.Migrant{Island: 0, Epoch: epoch, SolID: epoch, Vars: s.Vars, Objs: s.Objs}
}

// boundary opens the epoch accept count n reaches and sends its
// emigrant, failing unless n opens want.
func (isl *island) boundary(t *testing.T, n, want uint64) {
	t.Helper()
	epoch, ok := isl.mig.Boundary(n)
	if !ok || epoch != want {
		t.Fatalf("accept %d opened epoch %d (%v), want %d", n, epoch, ok, want)
	}
	if len(isl.mig.Emigrant(obs.SpanContext{})) == 0 {
		t.Fatalf("epoch %d: empty emigrant frame", epoch)
	}
}

// source feeds next from a fixed sequence of frames; a call past its
// end is a test failure (the protocol must not wait on a frame it has).
func source(t *testing.T, frames ...*wire.Migrant) (next func() (*wire.Migrant, error), calls *int) {
	calls = new(int)
	return func() (*wire.Migrant, error) {
		if *calls >= len(frames) {
			t.Fatalf("next called %d times, only %d frames arrive", *calls+1, len(frames))
		}
		*calls++
		return frames[*calls-1], nil
	}, calls
}

// TestMigrationProtocol pins the transport-free epoch protocol both the
// DES islands driver and the TCP federation run: the early-migrant
// buffer, the epoch guard, the no-wait rule on the final accept, and a
// silent predecessor.
func TestMigrationProtocol(t *testing.T) {
	t.Run("early migrants out of order", func(t *testing.T) {
		isl := newIsland(t)
		next, calls := source(t, isl.migrant(3), isl.migrant(2), isl.migrant(1))
		for epoch := uint64(1); epoch <= 3; epoch++ {
			isl.boundary(t, 10*epoch, epoch)
			in, err := isl.mig.Await(false, next)
			if err != nil {
				t.Fatal(err)
			}
			if in == nil || in.Epoch != epoch {
				t.Fatalf("epoch %d awaited migrant %+v", epoch, in)
			}
			evals := isl.b.Evaluations()
			isl.mig.Fold(int(in.Island), in.Epoch)
			if isl.enters != int(epoch) || isl.leaves != int(epoch) {
				t.Fatalf("epoch %d: fold ran %d/%d critical sections, want one per epoch", epoch, isl.enters, isl.leaves)
			}
			if isl.b.Evaluations() != evals {
				t.Fatalf("epoch %d: the fold charged a function evaluation", epoch)
			}
		}
		if *calls != 3 {
			t.Fatalf("next called %d times for 3 frames", *calls)
		}
		if n := isl.b.Population().Size(); n != 1+3 {
			t.Fatalf("population of %d after one accept and three folds, want 4", n)
		}
		isl.mig.Fold(0, 3) // nothing staged: no critical section
		if isl.enters != 3 {
			t.Fatalf("a fold with nothing staged entered a critical section")
		}
	})

	t.Run("count seen twice opens one epoch", func(t *testing.T) {
		isl := newIsland(t)
		for _, n := range []uint64{0, 5} {
			if _, ok := isl.mig.Boundary(n); ok {
				t.Fatalf("accept %d opened an epoch", n)
			}
		}
		isl.boundary(t, 10, 1)
		if _, ok := isl.mig.Boundary(10); ok {
			t.Fatal("accept 10 seen twice opened a second epoch")
		}
		isl.boundary(t, 20, 2)
		if isl.mig.Sent() != 2 || isl.log.Len() != 2 || isl.sent.Value() != 2 {
			t.Fatalf("sent %d, logged %d, counted %d emigrants, want 2", isl.mig.Sent(), isl.log.Len(), isl.sent.Value())
		}
		for _, off := range []*federation.Migration{
			federation.NewMigration(7, 0, 1, 10, isl.b, nil, nil, nil),
			federation.NewMigration(7, 0, 3, 0, isl.b, nil, nil, nil),
		} {
			if _, ok := off.Boundary(10); ok {
				t.Fatal("migration off (one island, or no cadence) opened an epoch")
			}
		}
	})

	t.Run("budget completes on a boundary", func(t *testing.T) {
		isl := newIsland(t)
		epoch, _ := isl.mig.Boundary(10)
		frame := isl.mig.Emigrant(obs.SpanContext{})
		msg, err := wire.DecodeFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		if mg := msg.(*wire.Migrant); mg.Island != 1 || mg.Epoch != epoch {
			t.Fatalf("emigrant frame is island %d epoch %d, want island 1 epoch %d", mg.Island, mg.Epoch, epoch)
		}
		next, calls := source(t)
		in, err := isl.mig.Await(true, next)
		if in != nil || err != nil || *calls != 0 {
			t.Fatalf("done island waited: migrant %v, err %v, %d next calls", in, err, *calls)
		}
		if isl.log.Len() != 1 || isl.mig.Sent() != 1 {
			t.Fatalf("done island logged %d, sent %d emigrants, want 1", isl.log.Len(), isl.mig.Sent())
		}
	})

	t.Run("silent predecessor", func(t *testing.T) {
		isl := newIsland(t)
		isl.boundary(t, 20, 2)
		silent := errors.New("timed out")
		in, err := isl.mig.Await(false, func() (*wire.Migrant, error) { return nil, silent })
		if in != nil || !errors.Is(err, silent) {
			t.Fatalf("silent predecessor: migrant %v, err %v", in, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "epoch 2") || !strings.Contains(msg, "island 0") {
			t.Fatalf("error %q names neither the epoch (2) nor the predecessor (island 0)", msg)
		}
		isl.mig.Fold(0, 2)
		if isl.enters != 0 {
			t.Fatal("a failed epoch folded something in")
		}
	})
}

// TestNoHandRolledMigration keeps the epoch protocol in one file: under
// internal/, outside protocol.go, no non-test code computes an epoch
// from MigrationEvery, keeps an epoch-keyed migrant map or injects a
// solution into Borg — replay.go excepted, which re-injects recorded
// migrants.
func TestNoHandRolledMigration(t *testing.T) {
	rules := []struct {
		re     *regexp.Regexp
		except string
		why    string
	}{
		{regexp.MustCompile(`[/%]\s*[\w.]*MigrationEvery\b`), "", "migration epochs are federation.Migration.Boundary's"},
		{regexp.MustCompile(`map\[uint64\]\*?(wire\.)?Migrant\b`), "", "early migrants wait in federation.Migration"},
		{regexp.MustCompile(`\.InjectEvaluated\(`), "../federation/replay.go", "migrants fold in through federation.Migration.Fold"},
	}
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		path = filepath.ToSlash(path)
		if path == "../federation/protocol.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			for _, r := range rules {
				if path != r.except && r.re.MatchString(code) {
					t.Errorf("%s:%d: %s\n\t%s (internal/federation/protocol.go)", path, i+1, strings.TrimSpace(line), r.why)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
