package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"borgmoea/internal/problems"
)

// refSaveArchive is SaveArchive as it was written with encoding/json,
// kept verbatim as the oracle the append encoder must match byte for
// byte.
func refSaveArchive(w io.Writer, a *Archive) error {
	out := archiveJSON{Epsilons: a.Epsilons()}
	for _, m := range a.Members() {
		out.Solutions = append(out.Solutions, solutionJSON{
			Vars:     m.Vars,
			Objs:     m.Objs,
			Constrs:  m.Constrs,
			Operator: m.Operator,
			ID:       m.ID,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// checkSaveMatchesReference saves a with both encoders and fails
// unless they agree on the bytes and on whether there is an error.
func checkSaveMatchesReference(t *testing.T, a *Archive) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := SaveArchive(&got, a), refSaveArchive(&want, a)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("SaveArchive error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil && got.Len() != 0 {
		t.Fatalf("SaveArchive wrote %d bytes before failing", got.Len())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SaveArchive differs from the reference:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

// TestSaveArchiveMatchesReference: the append encoder writes the
// document encoding/json wrote, on the archives that exercise its
// formatting rules.
func TestSaveArchiveMatchesReference(t *testing.T) {
	sol := func(vars, objs, constrs []float64, op int, id uint64) *Solution {
		return &Solution{Vars: vars, Objs: objs, Constrs: constrs, Operator: op, ID: id}
	}
	eps := []float64{0.1, 0.25}
	cases := map[string]*Archive{
		"empty": NewArchive([]float64{0.1}, 0),
		"infeasible placeholder": {epsilons: eps, members: []*Solution{
			sol([]float64{0.5}, []float64{1, 2}, []float64{0.75, 0}, 2, 9),
		}},
		"nil and empty vars": {epsilons: eps, members: []*Solution{
			sol(nil, []float64{1, 2}, nil, 0, 1),
			sol([]float64{}, []float64{3, 4}, []float64{}, 1, 2),
			sol([]float64{0.5}, nil, nil, 0, 3),
		}},
		"negative zero and subnormals": {epsilons: []float64{math.SmallestNonzeroFloat64}, members: []*Solution{
			sol([]float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				math.Float64frombits(0x000fffffffffffff)}, []float64{2.2250738585072014e-308}, nil, 0, 1),
		}},
		"format boundaries": {epsilons: []float64{1e-6, 1e21}, members: []*Solution{
			sol([]float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21, -1e-6,
				1e-7, 1e-10, 1e-100, 1.5e-300, 1e300, math.MaxFloat64, 123456789.125, 0.1, 1e20},
				[]float64{1e-7, -1e-9}, nil, 3, 4),
		}},
		"max id and operator -1": {epsilons: eps, members: []*Solution{
			sol([]float64{0.25, 0.75}, []float64{0.5, 0.5}, nil, -1, math.MaxUint64),
		}},
		"NaN": {epsilons: eps, members: []*Solution{
			sol([]float64{math.NaN()}, []float64{1, 2}, nil, 0, 1),
		}},
		"+Inf objective": {epsilons: eps, members: []*Solution{
			sol([]float64{0.5}, []float64{math.Inf(1), 2}, nil, 0, 1),
		}},
		"-Inf constraint": {epsilons: eps, members: []*Solution{
			sol([]float64{0.5}, []float64{1, 2}, []float64{math.Inf(-1)}, 0, 1),
		}},
		"NaN epsilon": {epsilons: []float64{math.NaN()}},
	}
	b := MustNew(problems.NewDTLZ2(3), Config{Epsilons: UniformEpsilons(3, 0.05), Seed: 2})
	b.Run(3000, nil)
	cases["DTLZ2_3 run"] = b.Archive()
	for name, a := range cases {
		t.Run(name, func(t *testing.T) { checkSaveMatchesReference(t, a) })
	}

	// A run's archive survives LoadArchive unchanged.
	var first, second bytes.Buffer
	if err := SaveArchive(&first, b.Archive()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArchive(bytes.NewReader(first.Bytes()), 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveArchive(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("SaveArchive(LoadArchive(SaveArchive(a))) differs from SaveArchive(a)")
	}
}

// TestAppendArchiveAllocs: saving an archive of a few dozen members
// takes a handful of allocations, however long the document.
func TestAppendArchiveAllocs(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), Config{Epsilons: UniformEpsilons(3, 0.05), Seed: 2})
	b.Run(3000, nil)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := AppendArchive(nil, b.Archive()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("AppendArchive of %d members: %.0f allocations, want 1", b.Archive().Size(), allocs)
	}
}

// BenchmarkSaveArchive times the append encoder against the
// encoding/json oracle on a DTLZ2_3 archive of a few dozen members.
func BenchmarkSaveArchive(b *testing.B) {
	borg := MustNew(problems.NewDTLZ2(3), Config{Epsilons: UniformEpsilons(3, 0.1), Seed: 2})
	borg.Run(5000, nil)
	for _, enc := range []struct {
		name string
		save func(io.Writer, *Archive) error
	}{{"append", SaveArchive}, {"reference", refSaveArchive}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.save(io.Discard, borg.Archive()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzSaveArchive decodes an archive from the input — every float64 bit
// pattern, NaN and ±Inf included, nil and empty slices, any operator and
// id — and compares the append encoder with the encoding/json oracle.
func FuzzSaveArchive(f *testing.F) {
	f.Add([]byte{1, 0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a})
	f.Add(append([]byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x43},
		bytes.Repeat([]byte{0x3e, 0xb0, 0xc6, 0xf7, 0xa0, 0xb5, 0xed, 0x8d}, 8)...))
	f.Add(append([]byte{1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x12}, bytes.Repeat([]byte{0xff}, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		word := func() uint64 {
			var w [8]byte
			for i := range w {
				w[i] = next()
			}
			return binary.BigEndian.Uint64(w[:])
		}
		floats := func(n int, isNil bool) []float64 {
			if isNil {
				return nil
			}
			v := make([]float64, n)
			for i := range v {
				v[i] = math.Float64frombits(word())
			}
			return v
		}
		a := &Archive{epsilons: floats(1+int(next()%4), false)}
		for len(data) > 0 && len(a.members) < 16 {
			shape := next()
			s := &Solution{
				Vars:     floats(int(shape%4), shape&0x04 != 0),
				Objs:     floats(int(shape>>3%3), shape&0x20 != 0),
				Constrs:  floats(int(shape>>6%2), shape&0x80 == 0),
				Operator: int(int8(next())),
				ID:       word(),
			}
			a.members = append(a.members, s)
		}
		checkSaveMatchesReference(t, a)
	})
}

func TestSaveLoadArchiveRoundTrip(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(3), Config{
		Epsilons: UniformEpsilons(3, 0.05),
		Seed:     1,
	})
	b.Run(3000, nil)
	orig := b.Archive()

	var buf bytes.Buffer
	if err := SaveArchive(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArchive(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != orig.Size() {
		t.Fatalf("round trip changed size: %d -> %d", orig.Size(), loaded.Size())
	}
	// Same epsilons.
	for i, e := range loaded.Epsilons() {
		if e != orig.Epsilons()[i] {
			t.Fatal("epsilons not preserved")
		}
	}
	// Same objective vectors (order-independent).
	want := map[[3]float64]bool{}
	for _, m := range orig.Members() {
		want[[3]float64{m.Objs[0], m.Objs[1], m.Objs[2]}] = true
	}
	for _, m := range loaded.Members() {
		if !want[[3]float64{m.Objs[0], m.Objs[1], m.Objs[2]}] {
			t.Fatalf("loaded archive contains unknown member %v", m.Objs)
		}
	}
	// Operator credit preserved through re-adding.
	for i, c := range loaded.OperatorCounts() {
		if c != orig.OperatorCounts()[i] {
			t.Fatalf("operator credit changed: %v -> %v",
				orig.OperatorCounts(), loaded.OperatorCounts())
		}
	}
}

func TestLoadArchiveRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"epsilons": [], "solutions": []}`,
		`{"epsilons": [0.1, -1], "solutions": []}`,
		`{"epsilons": [0.1], "solutions": [{"vars":[1],"objs":[1,2]}]}`,
	}
	for _, c := range cases {
		if _, err := LoadArchive(strings.NewReader(c), 0); err == nil {
			t.Errorf("LoadArchive accepted %q", c)
		}
	}
}

func TestLoadArchiveReappliesDominance(t *testing.T) {
	// A hand-edited file with a dominated entry: the loader must drop
	// it.
	file := `{
	 "epsilons": [0.1, 0.1],
	 "solutions": [
	  {"vars": [0.1], "objs": [0.2, 0.2]},
	  {"vars": [0.2], "objs": [0.9, 0.9]}
	 ]
	}`
	a, err := LoadArchive(strings.NewReader(file), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 1 {
		t.Fatalf("dominated member survived load: size = %d", a.Size())
	}
}

func TestSaveArchiveEmptyIsLoadable(t *testing.T) {
	a := NewArchive([]float64{0.1}, 0)
	var buf bytes.Buffer
	if err := SaveArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArchive(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 0 {
		t.Fatal("empty archive round trip gained members")
	}
}

// TestSaveLoadArchiveVaryingNumOps: the operator-credit table size is a
// property of the loading process, not the file. Loading into fewer
// slots than the run used must not crash or corrupt membership —
// out-of-range operators simply earn no credit — and loading into more
// slots leaves the extras at zero.
func TestSaveLoadArchiveVaryingNumOps(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(2), Config{
		Epsilons: UniformEpsilons(2, 0.05),
		Seed:     3,
	})
	b.Run(2000, nil)
	orig := b.Archive()

	var buf bytes.Buffer
	if err := SaveArchive(&buf, orig); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	for _, numOps := range []int{0, 1, 6, 12} {
		loaded, err := LoadArchive(strings.NewReader(saved), numOps)
		if err != nil {
			t.Fatalf("numOps=%d: %v", numOps, err)
		}
		if loaded.Size() != orig.Size() {
			t.Errorf("numOps=%d: size %d, want %d", numOps, loaded.Size(), orig.Size())
		}
		counts := loaded.OperatorCounts()
		if len(counts) != numOps {
			t.Fatalf("numOps=%d: credit table has %d slots", numOps, len(counts))
		}
		credited := 0
		for _, c := range counts {
			credited += c
		}
		if credited > loaded.Size() {
			t.Errorf("numOps=%d: %d credits for %d members", numOps, credited, loaded.Size())
		}
		for i := 6; i < numOps; i++ {
			if counts[i] != 0 {
				t.Errorf("numOps=%d: phantom credit in unused slot %d", numOps, i)
			}
		}
	}
}

// TestLoadArchiveTruncatedInput: a checkpoint cut off mid-write (a
// crashed process, a torn copy) must come back as an error from every
// prefix, never a panic or a silently short archive.
func TestLoadArchiveTruncatedInput(t *testing.T) {
	b := MustNew(problems.NewDTLZ2(2), Config{
		Epsilons: UniformEpsilons(2, 0.05),
		Seed:     5,
	})
	b.Run(1000, nil)
	var buf bytes.Buffer
	if err := SaveArchive(&buf, b.Archive()); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	if _, err := LoadArchive(strings.NewReader(full), 6); err != nil {
		t.Fatalf("untruncated archive failed to load: %v", err)
	}
	for _, frac := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.999} {
		cut := int(frac * float64(len(full)))
		if _, err := LoadArchive(strings.NewReader(full[:cut]), 6); err == nil {
			t.Errorf("truncation at %d/%d bytes loaded without error", cut, len(full))
		}
	}
}
