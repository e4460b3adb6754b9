package master

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"borgmoea/internal/reclog"
)

// LogMeta is the configuration a recorded run carries with it: what
// Replay needs to reconstruct the Core and, in Run, the spec that
// rebuilds the algorithm — protocol structure and spec, no solutions.
type LogMeta struct {
	Policy       Policy
	Budget       uint64
	LeaseTimeout float64
	Run          *RunHeader // set by the recorder, kept by the Core's stamp; makes the log version 2
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
	// Sink, when set, receives every recorded event instead of Events:
	// a Log with a Sink passes each event on and appends nothing, so a
	// run streamed to disk through a LogWriter (borg -event-log, the
	// job server's per-job checkpoints) holds no copy in memory and
	// Events stays as the caller left it. Without a Sink the Log
	// retains the whole stream, which is what WriteTo, Replay and
	// CanonicalBytes read.
	Sink func(Event)
}

// NewLog returns an empty log ready to attach to a Config.
func NewLog() *Log { return &Log{} }

// record passes one event to the sink, or appends it (nil-safe).
func (l *Log) record(ev Event) {
	switch {
	case l == nil:
	case l.Sink != nil:
		l.Sink(ev)
	default:
		l.Events = append(l.Events, ev)
	}
}

// setMeta stamps the recording Core's configuration (nil-safe),
// keeping the recorder's run header.
func (l *Log) setMeta(m LogMeta) {
	if l != nil {
		m.Run = l.Meta.Run
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
// elapsed f64, event count u64 and, in version 2, a u32 length and the
// RunHeader's JSON (as json.Marshal encodes it); then fixed-width
// events: kind u8, worker u32, item u64, at f64. Everything big-endian;
// floats as IEEE 754 bits. A log without a run header is version 1.
var logFormat = reclog.Format{Name: "master: event log", Magic: "BMEL", Version: 2}

const (
	// HeaderSize is the byte length of a version-1 BMEL log header and
	// EventSize that of one fixed-width event record.
	HeaderSize = 4 + 1 + logHeaderSize
	EventSize  = 1 + 4 + 8 + 8

	logHeaderSize = 1 + 4*8
	// logDeferFlag is the retired deferred-apply bit of the header's
	// policy byte. Such a recording interleaved the algorithm's RNG
	// draws differently, so replaying it through the one remaining
	// result path would silently diverge: ReadLog rejects it.
	logDeferFlag = 0x80
)

// logHeader encodes the header after magic and version, with the
// format version it needs; count is the event count, or reclog.Stream
// for a streamed log whose writer cannot know it.
func logHeader(meta LogMeta, elapsed float64, count uint64) (reclog.Format, []byte, error) {
	f := logFormat
	dst := append(make([]byte, 0, logHeaderSize), byte(meta.Policy))
	dst = binary.BigEndian.AppendUint64(dst, meta.Budget)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(meta.LeaseTimeout))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(elapsed))
	dst = binary.BigEndian.AppendUint64(dst, count)
	if meta.Run == nil {
		f.Version = 1
		return f, dst, nil
	}
	doc, err := json.Marshal(meta.Run)
	if err != nil {
		return f, nil, fmt.Errorf("master: encoding the run header: %w", err)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(doc)))
	return f, append(dst, doc...), nil
}

func appendLogEvent(dst []byte, ev Event) []byte {
	dst = append(dst, byte(ev.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Worker))
	dst = binary.BigEndian.AppendUint64(dst, ev.Item)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.At))
}

// WriteTo serializes the log. It implements io.WriterTo.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	f, hdr, err := logHeader(l.Meta, l.Elapsed, uint64(len(l.Events)))
	if err != nil {
		return 0, err
	}
	return reclog.WriteAll(f, w, hdr, l.Events, appendLogEvent)
}

// StreamLen is the byte length of a streamed log with meta's header
// holding n events. A resuming writer truncates a crash-interrupted
// file to the StreamLen of the log ReadLog returned, dropping the torn
// partial record ReadLog skipped.
func StreamLen(meta LogMeta, n int) int64 {
	_, hdr, _ := logHeader(meta, 0, reclog.Stream) // ReadLog accepts only headers that re-encode to themselves
	return HeaderSize + int64(len(hdr)-logHeaderSize) + int64(n)*EventSize
}

// LogWriter streams a BMEL log as events are recorded, instead of
// serializing a finished Log in one WriteTo pass: the header
// immediately, with the streaming count sentinel, then one fixed-width
// record per Record call, one Write each — append-only, so a process
// crash costs at most the trailing partial record, which ReadLog
// tolerates. After a write error Record and Err keep returning it; the
// caller decides whether the run goes on without durability. Make it a
// recording Log's Sink and the run streams to disk without retaining
// its events; the job server's per-job checkpoints are written this
// way.
type LogWriter = reclog.Writer[Event]

// NewLogWriter writes the streaming header for meta and returns the
// writer. A streamed log's Elapsed is unknown up front and reads back
// as 0.
func NewLogWriter(w io.Writer, meta LogMeta) (*LogWriter, error) {
	f, hdr, err := logHeader(meta, 0, reclog.Stream)
	if err != nil {
		return nil, err
	}
	return reclog.NewWriter(f, w, hdr, appendLogEvent)
}

// SealLog rewrites the header of a log a LogWriter streamed n events
// into with the header WriteTo writes: the event count and the run's
// elapsed time in place of the streaming sentinel and 0. The sealed
// file is byte for byte the log WriteTo would have written for the
// same events.
func SealLog(w io.WriterAt, meta LogMeta, elapsed float64, n uint64) error {
	_, hdr, err := logHeader(meta, elapsed, n)
	if err != nil {
		return err
	}
	_, err = w.WriteAt(hdr, HeaderSize-logHeaderSize)
	return err
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
// event count, a run header over MaxSpecBytes or not as json.Marshal
// encodes a RunHeader — returns a clean error, never a panic. Only a
// short trailing record of a streamed log is tolerated (a torn tail).
// Once the header has decoded, an error in the records still returns
// the log, holding the events before the first bad record: its intact
// prefix. A header error returns a nil log.
func ReadLog(r io.Reader) (*Log, error) { return readLog(r, true) }

// ReadLogHeader reads a log's header and none of its events.
func ReadLogHeader(r io.Reader) (*Log, error) { return readLog(r, false) }

func readLog(r io.Reader, events bool) (*Log, error) {
	rd := logFormat.NewReader(r)
	hdr := rd.Header(logHeaderSize)
	if err := rd.Err(); err != nil {
		return nil, err
	}
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
	if rd.Version() == 2 {
		// The length is checked before anything is allocated for it.
		n := binary.BigEndian.Uint32(rd.Header(4)) // 0 after a read error, which the next check reports
		if n > MaxSpecBytes {
			return nil, fmt.Errorf("master: run header claims %d bytes (limit %d)", n, MaxSpecBytes)
		}
		doc := rd.Header(int(n))
		if err := rd.Err(); err != nil {
			return nil, err
		}
		var run RunHeader
		if err := json.Unmarshal(doc, &run); err != nil {
			return nil, fmt.Errorf("master: run header: %w", err)
		}
		if run.Spec == nil {
			return nil, fmt.Errorf("master: run header names no spec")
		}
		// A log must re-encode to its own bytes (and StreamLen measure it).
		if canon, err := json.Marshal(&run); err != nil || !bytes.Equal(canon, doc) {
			return nil, fmt.Errorf("master: run header is not in canonical form")
		}
		l.Meta.Run = &run
	}
	if !events {
		return l, nil
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
	l.Events = recs
	return l, err
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
	// Meters/OnAccept optionally re-instrument the replay; the hook
	// stays attached afterwards, so a driver that resumes the returned
	// Core live (the job server's checkpoint restore) keeps its
	// accept-time instrumentation.
	Meters   Meters
	OnAccept func(completed uint64, at float64)
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
		Alg:          rc.Alg,
		Meters:       rc.Meters,
		OnAccept:     rc.OnAccept,
		OnMigrant:    rc.OnMigrant,
		OnQuality:    rc.OnQuality,
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
