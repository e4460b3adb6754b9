package master

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"borgmoea/internal/core"
)

// TestBracketOrder: every call runs Enter, the embedded call, Leave —
// and Leave learns whether the section folded a result in.
func TestBracketOrder(t *testing.T) {
	var calls []string
	alg := &stubAlg{}
	b := &Bracket{
		Algorithm: alg,
		Enter:     func() { calls = append(calls, "enter") },
		Leave: func(accept bool) {
			if accept {
				calls = append(calls, "leave:accept")
			} else {
				calls = append(calls, "leave")
			}
		},
	}
	s := b.Suggest()
	s.Objs = []float64{0}
	b.Accept(s)
	next := b.AcceptSuggest(s)
	want := []string{"enter", "leave", "enter", "leave:accept", "enter", "leave:accept"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("hook calls = %v, want %v", calls, want)
	}
	if next == nil || len(alg.accepted) != 2 {
		t.Fatalf("bracket did not reach the algorithm: next=%v accepted=%d", next, len(alg.accepted))
	}
}

// TestBracketNoAllocs: the bracket adds no allocation to a critical
// section (a section closure would — that is why the hooks are plain).
func TestBracketNoAllocs(t *testing.T) {
	sections := 0
	b := &Bracket{Algorithm: &preallocAlg{}, Enter: func() { sections++ }, Leave: func(bool) {}}
	s := &core.Solution{}
	if avg := testing.AllocsPerRun(200, func() { b.AcceptSuggest(s) }); avg > 0 {
		t.Fatalf("bracketed AcceptSuggest allocates %.2f objects/op, want 0", avg)
	}
	if sections == 0 {
		t.Fatal("Enter never ran")
	}
}

// TestNoHandRolledAlgorithms keeps the per-driver adapters from growing
// back: under internal/, only *core.Borg and this package may declare
// an AcceptSuggest method. A driver that wants to meter the critical
// section hangs two hooks on a Bracket instead.
func TestNoHandRolledAlgorithms(t *testing.T) {
	decl := regexp.MustCompile(`^func \([^)]*\) AcceptSuggest\(`)
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if p := filepath.ToSlash(path); p == "../core/borg.go" || strings.HasPrefix(p, "../master/") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if decl.MatchString(line) {
				t.Errorf("%s:%d: %s\n\t*core.Borg is a master.Algorithm; meter it with a master.Bracket", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
