package master

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"borgmoea/internal/core"
	"borgmoea/internal/obs"
	"borgmoea/internal/reclog"
)

// LogMeta is the configuration slice a recorded run carries with it:
// everything Replay needs to reconstruct the Core besides the problem,
// the seed and the algorithm (which the replaying caller supplies —
// the log deliberately holds protocol structure, not solutions).
type LogMeta struct {
	Policy       Policy
	Budget       uint64
	LeaseTimeout float64
}

// Log records the exact event stream a Core consumed. Because the
// Core is pure — no randomness, no clock reads — re-feeding the stream
// to a fresh Core with the same algorithm deterministically reproduces
// every decision of the original run, including one that happened over
// real TCP: the transport's nondeterminism (goroutine scheduling,
// packet timing, worker crashes) is fully captured in the event order
// and timestamps.
//
// Elapsed is the driver-recorded T_P (the completion timestamp on the
// driver's own clock); it is carried so a replayed Result reports the
// original run's elapsed time, which no event timestamp alone pins
// down (the DES drivers complete after a final T_A hold).
type Log struct {
	Meta    LogMeta
	Elapsed float64
	Events  []Event
	// OnRecord, when set, observes every event as it is recorded — the
	// hook a streaming LogWriter rides so checkpoints hit disk at event
	// granularity instead of waiting for a WriteTo at the end.
	OnRecord func(Event)
}

// NewLog returns an empty log ready to attach to a Config.
func NewLog() *Log { return &Log{} }

// record appends one event (nil-safe).
func (l *Log) record(ev Event) {
	if l != nil {
		l.Events = append(l.Events, ev)
		if l.OnRecord != nil {
			l.OnRecord(ev)
		}
	}
}

// setMeta stamps the recording Core's configuration (nil-safe).
func (l *Log) setMeta(m LogMeta) {
	if l != nil {
		l.Meta = m
	}
}

// SetElapsed records the run's T_P (nil-safe); drivers call it at
// completion.
func (l *Log) SetElapsed(t float64) {
	if l != nil {
		l.Elapsed = t
	}
}

// CanonicalBytes serializes the logical protocol sequence — event
// kinds, workers and lease ids, excluding timestamps and ticks — for
// cross-transport comparison: the DES and loopback-TCP drivers run
// different clocks (and only the TCP driver polls with ticks), but for
// the same seed they must drive the shared Core through the identical
// logical sequence.
func (l *Log) CanonicalBytes() []byte {
	if l == nil {
		return nil
	}
	out := make([]byte, 0, 10*len(l.Events))
	for _, ev := range l.Events {
		// Ticks are transport pacing, and quality samples follow the
		// (possibly wall-clock) sampling cadence — neither is part of
		// the logical protocol sequence the transports must agree on.
		if ev.Kind == EvTick || ev.Kind == EvQuality {
			continue
		}
		out = append(out, byte(ev.Kind))
		out = binary.AppendUvarint(out, uint64(ev.Worker))
		out = binary.AppendUvarint(out, ev.Item)
	}
	return out
}

// Binary log format ("BMEL"), a reclog container: after magic and
// version the header is policy u8, budget u64, lease timeout f64,
// elapsed f64, event count u64; then fixed-width events: kind u8,
// worker u32, item u64, at f64. Everything big-endian; floats as IEEE
// 754 bits.
var logFormat = reclog.Format{Name: "master: event log", Magic: "BMEL", Version: 1}

const (
	// HeaderSize is the byte length of a BMEL log header and EventSize
	// that of one fixed-width event record.
	HeaderSize = 4 + 1 + logHeaderSize
	EventSize  = 1 + 4 + 8 + 8

	logHeaderSize = 1 + 4*8
	// logDeferFlag is the retired deferred-apply bit of the header's
	// policy byte. Such a recording interleaved the algorithm's RNG
	// draws differently, so replaying it through the one remaining
	// result path would silently diverge: ReadLog rejects it.
	logDeferFlag = 0x80
)

// appendLogHeader encodes the header; count is the event count, or
// reclog.Stream for a streamed log whose writer cannot know it.
func appendLogHeader(dst []byte, meta LogMeta, elapsed float64, count uint64) []byte {
	dst = append(dst, byte(meta.Policy))
	dst = binary.BigEndian.AppendUint64(dst, meta.Budget)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(meta.LeaseTimeout))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(elapsed))
	return binary.BigEndian.AppendUint64(dst, count)
}

func appendLogEvent(dst []byte, ev Event) []byte {
	dst = append(dst, byte(ev.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Worker))
	dst = binary.BigEndian.AppendUint64(dst, ev.Item)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.At))
}

// WriteTo serializes the log. It implements io.WriterTo.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	hdr := appendLogHeader(nil, l.Meta, l.Elapsed, uint64(len(l.Events)))
	return reclog.WriteAll(logFormat, w, hdr, l.Events, appendLogEvent)
}

// StreamLen is the byte length of a streamed log holding n events: the
// header plus n fixed-width records. A resuming writer truncates a
// crash-interrupted file to the StreamLen of the events ReadLog
// returned, dropping the torn partial record ReadLog skipped.
func StreamLen(n int) int64 { return HeaderSize + int64(n)*EventSize }

// LogWriter streams a BMEL log as events are recorded, instead of
// serializing a finished Log in one WriteTo pass: the header
// immediately, with the streaming count sentinel, then one fixed-width
// record per Record call, one Write each — append-only, so a process
// crash costs at most the trailing partial record, which ReadLog
// tolerates. After a write error Record and Err keep returning it; the
// caller decides whether the run goes on without durability. Wire it to
// a recording Log through the OnRecord hook; the job server's per-job
// checkpoints are written this way.
type LogWriter = reclog.Writer[Event]

// NewLogWriter writes the streaming header for meta and returns the
// writer. A streamed log's Elapsed is unknown up front and reads back
// as 0.
func NewLogWriter(w io.Writer, meta LogMeta) (*LogWriter, error) {
	return reclog.NewWriter(logFormat, w, appendLogHeader(nil, meta, 0, reclog.Stream), appendLogEvent)
}

// ResumeLogWriter returns a LogWriter that appends to an existing
// streamed log without writing a fresh header. The caller must have
// positioned w at the end of the last complete record (truncating the
// file to StreamLen of the events read first), so the resumed stream
// stays readable by ReadLog.
func ResumeLogWriter(w io.Writer) *LogWriter {
	return reclog.ResumeWriter(logFormat, w, appendLogEvent)
}

// ReadLog deserializes a log written by WriteTo or a LogWriter.
// Malformed input — wrong magic or version, an unknown policy or event
// kind, the retired deferred-apply bit, truncated streams, an absurd
// event count — returns a clean error, never a panic. Only a short
// trailing record of a streamed log is tolerated (a torn tail).
func ReadLog(r io.Reader) (*Log, error) {
	rd := logFormat.NewReader(r)
	hdr := rd.Header(logHeaderSize) // zeroes after a read error, which Records reports
	if hdr[0]&logDeferFlag != 0 {
		return nil, fmt.Errorf("master: log was recorded with deferred apply, which no longer exists; it cannot be replayed")
	}
	if Policy(hdr[0]) > ScheduledOffspring {
		return nil, fmt.Errorf("master: log has unknown offspring policy %d", hdr[0])
	}
	l := &Log{Meta: LogMeta{
		Policy:       Policy(hdr[0]),
		Budget:       binary.BigEndian.Uint64(hdr[1:]),
		LeaseTimeout: math.Float64frombits(binary.BigEndian.Uint64(hdr[9:])),
	}}
	l.Elapsed = math.Float64frombits(binary.BigEndian.Uint64(hdr[17:]))
	count := binary.BigEndian.Uint64(hdr[25:])
	const maxEvents = 1 << 28 // ~5.6 GiB of events; far beyond any real run
	if count != reclog.Stream && count > maxEvents {
		return nil, fmt.Errorf("master: log claims %d events (limit %d)", count, maxEvents)
	}
	recs, err := reclog.Records(rd, EventSize, count, func(rec []byte) (Event, error) {
		kind := EventKind(rec[0])
		if kind < EvJoin || kind > EvQuality {
			return Event{}, fmt.Errorf("unknown event kind %d", rec[0])
		}
		return Event{
			Kind:   kind,
			Worker: int(binary.BigEndian.Uint32(rec[1:])),
			Item:   binary.BigEndian.Uint64(rec[5:]),
			At:     math.Float64frombits(binary.BigEndian.Uint64(rec[13:])),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	l.Events = recs
	return l, nil
}

// traceStubAlg is the throwaway Algorithm ReplayTrace replays with:
// the Core's protocol decisions — and therefore its tracer calls — do
// not depend on solution contents, so empty suggestions suffice.
type traceStubAlg struct{}

func (traceStubAlg) Suggest() *core.Solution { return &core.Solution{} }
func (traceStubAlg) Accept(*core.Solution)   {}
func (traceStubAlg) AcceptSuggest(*core.Solution) *core.Solution {
	return &core.Solution{}
}

// ReplayTrace re-feeds the recorded event stream through a fresh Core
// with only the tracer attached, re-deriving the exact tracer-call
// sequence of the live run (span contexts are minted deterministically
// from event data). It implements obs.LogSource, so
// obs.TracesFromLog(log, sidecar) reconstructs a run's trace forest
// entirely offline.
func (l *Log) ReplayTrace(t obs.ProtocolTracer) error {
	_, err := Replay(l, ReplayConfig{Alg: traceStubAlg{}, Tracer: t})
	return err
}

// ReplayConfig parameterizes Replay.
type ReplayConfig struct {
	// Alg is the optimizer adapter, seeded exactly as the recorded run
	// was (required).
	Alg Algorithm
	// Evaluate re-computes a solution's objectives when its result
	// event is about to be accepted — the replay stand-in for the
	// worker's function evaluation. Deterministic problems make the
	// replayed trajectory bit-identical to the original.
	Evaluate func(item *Item)
	// MaxProbes must match the recorded run's (0 = DefaultMaxProbes).
	MaxProbes int
	// Meters/OnAccept/OnAcceptFrom optionally re-instrument the
	// replay; the hooks stay attached afterwards, so a driver that
	// resumes the returned Core live (the job server's checkpoint
	// restore) keeps its accept-time instrumentation.
	Meters       Meters
	OnAccept     func(completed uint64)
	OnAcceptFrom func(worker int, completed uint64, at float64)
	// OnMigrant re-injects federated migrants at their recorded epochs:
	// the replaying caller resolves (source, epoch) against the migrant
	// sidecar log the original run kept and folds the same solution
	// back into the algorithm.
	OnMigrant func(source int, epoch uint64)
	// OnQuality re-triggers the recorded quality samples: a sampler
	// attached here observes the replayed algorithm at the identical
	// points in the accept stream, regenerating the original run's
	// quality timeline byte-for-byte (parallel.ReplayAsync rides
	// this).
	OnQuality func(seq uint64, at float64)
	// Tracer re-derives the recorded run's trace hooks: because the
	// Core mints span contexts deterministically from event data, the
	// replayed hooks are identical to the live ones (obs.TracesFromLog
	// rides this).
	Tracer obs.ProtocolTracer
}

// Replay re-feeds a recorded event stream to a fresh Core and returns
// it, deterministically reproducing the original run's protocol
// decisions and — with the same algorithm seed and a deterministic
// problem — its exact search trajectory.
func Replay(log *Log, rc ReplayConfig) (*Core, error) {
	if log == nil || len(log.Events) == 0 {
		return nil, fmt.Errorf("master: cannot replay an empty event log")
	}
	if rc.Alg == nil {
		return nil, fmt.Errorf("master: Replay needs an Algorithm")
	}
	c := NewCore(Config{
		Budget:       log.Meta.Budget,
		LeaseTimeout: log.Meta.LeaseTimeout,
		Policy:       log.Meta.Policy,
		MaxProbes:    rc.MaxProbes,
		Alg:          rc.Alg,
		Meters:       rc.Meters,
		OnAccept:     rc.OnAccept,
		OnAcceptFrom: rc.OnAcceptFrom,
		OnMigrant:    rc.OnMigrant,
		OnQuality:    rc.OnQuality,
		Tracer:       rc.Tracer,
	})
	for _, ev := range log.Events {
		if ev.Kind == EvResult && rc.Evaluate != nil {
			// The original worker evaluated before sending; reproduce
			// that for results the core will accept. Late duplicates
			// carry no live lease and their solutions were discarded.
			if worker, item, ok := c.Lease(ev.Item); ok && worker == ev.Worker {
				rc.Evaluate(item)
			}
		}
		c.Handle(ev)
	}
	return c, nil
}
