package obs

import (
	"encoding/binary"
	"io"
	"math"

	"borgmoea/internal/reclog"
)

// The trace sidecar ("BTRC") persists the half of a run's trace state
// that the BMEL event log cannot reproduce: live-measured model-term
// durations (exact float64 bits, so reconstruction is bit-exact),
// straggler-forced workers, and migration link contexts. Everything
// else — grants, results, expiries, resubmission lineage, migrant
// events and all their timestamps — replays from the BMEL log itself.
//
// Layout (a reclog container, like the BMEL log): magic "BTRC",
// version, then the header — run id u64, sampling rate f64 — then
// 26-byte records until EOF. The tail is torn-write tolerant: a partial
// trailing record is ignored, so a crashed run keeps every complete
// record.

var traceFormat = reclog.Format{Name: "obs: trace sidecar", Magic: "BTRC", Version: 1}

// On-disk sizes: the header after magic and version, and one record.
const (
	traceHeaderSize = 8 + 8
	traceRecSize    = 1 + 8 + 8 + 8 + 1
)

// TraceRec sidecar record kinds.
const (
	recTCSend uint8 = iota + 1
	recTCRecv
	recWait
	recTF
	recTA
	recForce
	recMigLink
	recEmigrant
)

// TraceRec is one sidecar record. Field use by kind: duration records
// (tc.send/tc.recv/wait/tf/ta) carry A=item, C=float64 bits; force
// carries A=worker; miglink carries A=epoch, B=remote trace id,
// C=remote span id, Flags=remote flags; emigrant carries A=epoch,
// C=float64 bits of the send time.
type TraceRec struct {
	Kind  uint8
	A     uint64
	B     uint64
	C     uint64
	Flags uint8
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }

// TraceLog is the parsed sidecar: the collector configuration that
// minted the run's trace ids plus every record, in record order.
type TraceLog struct {
	RunID uint64
	Rate  float64
	Recs  []TraceRec
}

// TraceLog snapshots the collector's sidecar state for persistence.
func (c *Collector) TraceLog() *TraceLog {
	if c == nil {
		return &TraceLog{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := make([]TraceRec, len(c.recs))
	copy(recs, c.recs)
	return &TraceLog{RunID: c.runID, Rate: c.rate, Recs: recs}
}

// WriteTo serializes the sidecar.
func (l *TraceLog) WriteTo(w io.Writer) (int64, error) {
	hdr := binary.BigEndian.AppendUint64(nil, l.RunID)
	hdr = binary.BigEndian.AppendUint64(hdr, f64bits(l.Rate))
	return reclog.WriteAll(traceFormat, w, hdr, l.Recs, func(dst []byte, r TraceRec) []byte {
		dst = append(dst, r.Kind)
		dst = binary.BigEndian.AppendUint64(dst, r.A)
		dst = binary.BigEndian.AppendUint64(dst, r.B)
		dst = binary.BigEndian.AppendUint64(dst, r.C)
		return append(dst, r.Flags)
	})
}

// ReadTraceLog parses a sidecar, tolerating a torn trailing record.
func ReadTraceLog(r io.Reader) (*TraceLog, error) {
	rd := traceFormat.NewReader(r)
	hdr := rd.Header(traceHeaderSize) // zeroes after a read error, which Records reports
	l := &TraceLog{
		RunID: binary.BigEndian.Uint64(hdr),
		Rate:  math.Float64frombits(binary.BigEndian.Uint64(hdr[8:])),
	}
	recs, err := reclog.Records(rd, traceRecSize, reclog.Stream, func(rec []byte) (TraceRec, error) {
		return TraceRec{
			Kind:  rec[0],
			A:     binary.BigEndian.Uint64(rec[1:]),
			B:     binary.BigEndian.Uint64(rec[9:]),
			C:     binary.BigEndian.Uint64(rec[17:]),
			Flags: rec[25],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	l.Recs = recs
	return l, nil
}

// NewCollectorFromLog builds a collector primed with a recorded
// sidecar's configuration and records; replaying the matching BMEL
// log through it (TracesFromLog) reconstructs the live forest.
func NewCollectorFromLog(tl *TraceLog) *Collector {
	c := NewCollector(CollectorConfig{RunID: tl.RunID, Rate: tl.Rate})
	c.Apply(tl.Recs)
	return c
}

// Apply replays sidecar records into the collector. Duration and link
// records merge into the same per-item/per-epoch state the live
// observations fed, so order against the protocol replay is
// irrelevant.
func (c *Collector) Apply(recs []TraceRec) {
	if c == nil {
		return
	}
	for _, r := range recs {
		switch r.Kind {
		case recTCSend, recTCRecv, recWait, recTF, recTA:
			c.observe(r.Kind, r.A, math.Float64frombits(r.C), false)
		case recForce:
			c.mu.Lock()
			c.forced[int(r.A)] = true
			c.mu.Unlock()
		case recMigLink:
			c.mu.Lock()
			c.migrant(r.A).link = SpanContext{TraceID: r.B, SpanID: r.C, Flags: r.Flags}
			c.mu.Unlock()
		case recEmigrant:
			c.mu.Lock()
			c.emig[r.A] = math.Float64frombits(r.C)
			c.mu.Unlock()
		}
	}
}
