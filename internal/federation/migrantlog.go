package federation

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"

	"borgmoea/internal/core"
	"borgmoea/internal/wire"
)

// MigrantLog is the sidecar a BMEL event log needs to replay a
// federated run: the island's outgoing migrants, one per migration
// epoch, in epoch order. The BMEL log pins *where* each EvMigrant was
// injected into the accept stream; the predecessor island's MigrantLog
// holds *what* was injected. Together the k (log, sidecar) pairs
// reproduce the identical merged Result offline (see Replay).
//
// Serialized form: the migrants as ordinary wire frames, concatenated
// — versioned and CRC-checked like all wire traffic, readable with
// wire.ReadMessageBuf until EOF.
type MigrantLog struct {
	mu       sync.Mutex
	migrants []*wire.Migrant
}

// NewMigrantLog returns an empty sidecar log.
func NewMigrantLog() *MigrantLog { return &MigrantLog{} }

// Record appends one outgoing migrant (nil-safe). The migrant is
// deep-copied: callers build frames referencing live archive-member
// slices, and the log must outlive them.
func (l *MigrantLog) Record(m *wire.Migrant) {
	if l == nil {
		return
	}
	cp := *m
	cp.Vars = append([]float64(nil), m.Vars...)
	cp.Objs = append([]float64(nil), m.Objs...)
	cp.Constrs = append([]float64(nil), m.Constrs...)
	l.mu.Lock()
	l.migrants = append(l.migrants, &cp)
	l.mu.Unlock()
}

// Len returns the number of recorded migrants.
func (l *MigrantLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.migrants)
}

// Solution returns the migrant recorded for the given epoch as a fresh
// evaluated solution, or false if the epoch was never recorded. Each
// call allocates its own slices, so concurrent replays cannot alias.
func (l *MigrantLog) Solution(epoch uint64) (*core.Solution, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.migrants {
		if m.Epoch == epoch {
			s := migrantSolution(m)
			s.Vars = append([]float64(nil), m.Vars...)
			s.Objs = append([]float64(nil), m.Objs...)
			s.Constrs = append([]float64(nil), m.Constrs...)
			return s, true
		}
	}
	return nil, false
}

// WriteTo serializes the log as concatenated wire frames. It
// implements io.WriterTo.
func (l *MigrantLog) WriteTo(w io.Writer) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bw := bufio.NewWriter(w)
	var n int64
	var buf []byte
	for _, m := range l.migrants {
		buf = wire.AppendFrame(buf[:0], m)
		k, err := bw.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadMigrantLog deserializes a log written by WriteTo: wire frames
// until EOF, every one of which must decode to a Migrant.
func ReadMigrantLog(r io.Reader) (*MigrantLog, error) {
	br := bufio.NewReader(r)
	l := &MigrantLog{}
	var buf []byte // payload scratch; decoded migrants never alias it
	for {
		m, buf2, err := wire.ReadMessageBuf(br, buf)
		buf = buf2
		if err != nil {
			if errors.Is(err, io.EOF) {
				return l, nil
			}
			return nil, fmt.Errorf("federation: migrant log: %w", err)
		}
		mg, ok := m.(*wire.Migrant)
		if !ok {
			return nil, fmt.Errorf("federation: migrant log holds a %s frame", m.Tag())
		}
		l.migrants = append(l.migrants, mg)
	}
}
