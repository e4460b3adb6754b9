package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// solutionJSON is the wire form of a Solution: what LoadArchive reads,
// and the field order and omissions AppendArchive writes.
type solutionJSON struct {
	Vars     []float64 `json:"vars"`
	Objs     []float64 `json:"objs,omitempty"`
	Constrs  []float64 `json:"constrs,omitempty"`
	Operator int       `json:"operator"`
	ID       uint64    `json:"id"`
}

// archiveJSON is the wire form of an Archive.
type archiveJSON struct {
	Epsilons  []float64      `json:"epsilons"`
	Solutions []solutionJSON `json:"solutions"`
}

// SaveArchive writes the archive (ε values and members) as JSON, so a
// long optimization can be checkpointed or its result shipped to
// another process. The document is the one encoding/json writes for
// archiveJSON with a one-space indent; a non-finite value is an error,
// and then nothing is written.
func SaveArchive(w io.Writer, a *Archive) error {
	buf, err := AppendArchive(nil, a)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendArchive appends SaveArchive's document for a to dst. On a
// non-finite value it returns dst unchanged and an error.
func AppendArchive(dst []byte, a *Archive) ([]byte, error) {
	// About 28 bytes per number at the solutions' depth and 64 per
	// solution's keys: one allocation for a typical archive.
	size := 64 + 24*len(a.epsilons)
	for _, m := range a.members {
		size += 64 + 28*(len(m.Vars)+len(m.Objs)+len(m.Constrs))
	}
	e := archiveEncoder{b: dst, ok: true}
	if cap(dst)-len(dst) < size {
		e.b = make([]byte, len(dst), len(dst)+size)
		copy(e.b, dst)
	}
	e.str("{\n \"epsilons\": ")
	e.floats(a.epsilons, 1)
	e.str(",\n \"solutions\": ")
	if len(a.members) == 0 {
		e.str("null")
	} else {
		for i, m := range a.members {
			if i == 0 {
				e.str("[\n  {\n   \"vars\": ")
			} else {
				e.str(",\n  {\n   \"vars\": ")
			}
			e.floats(m.Vars, 3)
			if len(m.Objs) > 0 {
				e.str(",\n   \"objs\": ")
				e.floats(m.Objs, 3)
			}
			if len(m.Constrs) > 0 {
				e.str(",\n   \"constrs\": ")
				e.floats(m.Constrs, 3)
			}
			e.str(",\n   \"operator\": ")
			e.b = strconv.AppendInt(e.b, int64(m.Operator), 10)
			e.str(",\n   \"id\": ")
			e.b = strconv.AppendUint(e.b, m.ID, 10)
			e.str("\n  }")
		}
		e.str("\n ]")
	}
	if !e.ok {
		return dst, errors.New("core: archive holds a non-finite value, which JSON cannot encode")
	}
	e.str("\n}\n")
	return e.b, nil
}

// archiveEncoder appends the indented JSON of an archive; ok turns
// false at the first non-finite number.
type archiveEncoder struct {
	b  []byte
	ok bool
}

func (e *archiveEncoder) str(s string) { e.b = append(e.b, s...) }

// floats appends v as a JSON array whose closing bracket sits at the
// given depth: null when v is nil, [] when it is empty, else one
// element per line.
func (e *archiveEncoder) floats(v []float64, depth int) {
	switch {
	case v == nil:
		e.str("null")
		return
	case len(v) == 0:
		e.str("[]")
		return
	}
	e.b = append(e.b, '[')
	for i, f := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.indent(depth + 1)
		e.float(f)
	}
	e.indent(depth)
	e.b = append(e.b, ']')
}

// indent starts a new line indented by depth spaces.
func (e *archiveEncoder) indent(depth int) {
	e.b = append(e.b, '\n')
	for ; depth > 0; depth-- {
		e.b = append(e.b, ' ')
	}
}

// float appends f as encoding/json formats a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with a
// two-digit negative exponent shortened (e-07 → e-7). NaN and ±Inf
// append nothing and clear ok.
func (e *archiveEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// LoadArchive reads an archive written by SaveArchive. numOps sets the
// operator-credit table size of the reconstructed archive (use
// len(Config.Operators), or 0 if adaptation credit is not needed).
// Members are re-added through the ε-dominance logic, so a file edited
// by hand still yields a consistent archive.
func LoadArchive(r io.Reader, numOps int) (*Archive, error) {
	var in archiveJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding archive: %w", err)
	}
	if len(in.Epsilons) == 0 {
		return nil, fmt.Errorf("core: archive file has no epsilons")
	}
	for _, e := range in.Epsilons {
		if e <= 0 {
			return nil, fmt.Errorf("core: archive file has non-positive epsilon %v", e)
		}
	}
	a := NewArchive(in.Epsilons, numOps)
	for i, s := range in.Solutions {
		if len(s.Objs) != len(in.Epsilons) {
			return nil, fmt.Errorf("core: solution %d has %d objectives, want %d",
				i, len(s.Objs), len(in.Epsilons))
		}
		a.Add(&Solution{
			Vars:     s.Vars,
			Objs:     s.Objs,
			Constrs:  s.Constrs,
			Operator: s.Operator,
			ID:       s.ID,
		})
	}
	return a, nil
}
