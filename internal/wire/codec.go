// Package wire carries the master/worker protocol of the parallel
// Borg MOEA drivers over real TCP connections. It is the third
// transport of the reproduction — next to the virtual-time DES cluster
// (internal/cluster) and the in-process goroutine executor — and turns
// the paper's MPI point-to-point messaging into something that runs
// P>1 across processes and machines.
//
// The package has three layers:
//
//   - a compact binary codec (this file): length-prefixed frames, a
//     version byte (always Version), and a CRC32 trailer, with one
//     message type per protocol tag (Hello/Welcome/Evaluate/Result/Stop,
//     Ping/Pong heartbeats and the islands' Migrant). Frames carry no
//     trace context: the master builds every span from what it
//     measures;
//   - a connection layer (conn.go): dial/accept with a handshake,
//     per-connection read/write with deadlines, background heartbeats,
//     and idle timeouts;
//   - a worker runtime (worker.go): the evaluate loop run by the borgd
//     daemon, with reconnect-with-hello so a restarted worker
//     re-registers exactly as the fault-tolerant master's
//     crash-recover path expects.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"borgmoea/internal/master"
)

// Version is the protocol version carried in every frame. A peer
// speaking a different version is rejected at decode time.
const Version = 1

// MaxFrame bounds the payload (version + tag + body + CRC) of one
// frame. It is far above any legitimate message — a 1 MiB frame holds
// a 128k-variable solution — and exists so a corrupt or hostile length
// prefix cannot make the reader allocate unbounded memory.
const MaxFrame = 1 << 20

// ReuseLimit is the largest frame payload ReadMessageBuf retains for
// reuse across calls. Frames above it (none of the steady-state
// evaluation traffic comes close) get a one-off allocation instead,
// so a single oversized message cannot pin its footprint on a
// long-lived connection's read buffer.
const ReuseLimit = 64 << 10

// Tag identifies a message type on the wire. The vocabulary is the
// canonical one in internal/master, shared with the virtual-time
// drivers' mailbox tags, so every transport speaks the same protocol:
// Hello/Welcome/Evaluate/Result/Stop plus the Ping/Pong
// transport-level liveness probes.
type Tag = master.Tag

const (
	TagHello    = master.TagHello
	TagWelcome  = master.TagWelcome
	TagEvaluate = master.TagEvaluate
	TagResult   = master.TagResult
	TagStop     = master.TagStop
	TagPing     = master.TagPing
	TagPong     = master.TagPong
	TagMigrant  = master.TagMigrant
)

// Message is one protocol message. Implementations are the exported
// structs below; Decode returns the concrete type for the frame's tag.
type Message interface {
	Tag() Tag
	appendBody(dst []byte) []byte
}

// Hello is the worker's (re-)registration, the first message on every
// connection. WorkerID is 0 on a first connect (the master assigns an
// identity in its Welcome) and the previously assigned id on a
// reconnect, which tells the master this is the crash-recover path:
// whatever the worker held died with the old connection.
type Hello struct {
	WorkerID uint64
}

// Welcome is the master's handshake reply: the worker's (possibly
// newly assigned) identity, the problem it must evaluate, the expected
// dimensions for validation, and the heartbeat interval the master
// wants the worker to honor (0 = worker's choice).
type Welcome struct {
	WorkerID        uint64
	Problem         string
	NumVars         uint32
	NumObjs         uint32
	HeartbeatMillis uint32
}

// MultiProblem is the Welcome.Problem sentinel of a multi-tenant
// session: the master multiplexes many problems over one fleet, so
// each Evaluate names its own (Evaluate.Problem) and the worker
// resolves per grant instead of once at handshake. The Welcome
// dimension fields are 0 and unchecked in this mode; per-grant
// failures come back as empty Results, not dropped connections.
const MultiProblem = "*"

// Evaluate grants one evaluation lease to a worker. Lease is the
// master's lease identifier (unique per dispatch — the dedup key of
// the fault-tolerance protocol), SolID/Operator are the solution's
// algorithm-level bookkeeping, echoed back in the Result. Problem
// names the problem to evaluate in a MultiProblem session; it is
// empty in single-problem sessions, where the handshake fixed it.
type Evaluate struct {
	Lease    uint64
	SolID    uint64
	Operator int32
	Problem  string
	Vars     []float64
}

// Result returns an evaluated solution. EvalNanos is the worker-side
// wall time of the evaluation (including any configured artificial
// delay), the distributed run's T_F observation. Constrs is empty for
// unconstrained problems.
type Result struct {
	Lease     uint64
	SolID     uint64
	Operator  int32
	EvalNanos uint64
	Objs      []float64
	Constrs   []float64
}

// Stop tells a worker to shut down cleanly.
type Stop struct{}

// Migrant carries one ε-archive member between federated island
// masters — the wire form of the in-process island migration side
// channel. Island is the sending island's id, Epoch the migration
// round (accepted-evaluation count divided by the migration cadence):
// together they name the EvMigrant event the receiver records, so a
// federated run's BMEL logs plus its migrant sidecar logs replay to
// the identical merged Result. SolID and Operator preserve the
// solution's algorithm-level bookkeeping (operator credit on archive
// entry) across the hop.
type Migrant struct {
	Island   uint32
	Epoch    uint64
	SolID    uint64
	Operator int32
	Vars     []float64
	Objs     []float64
	Constrs  []float64
}

// Ping and Pong are heartbeat probes exchanged by the connection layer
// whenever a link is otherwise idle; they never surface from Recv.
type (
	Ping struct{}
	Pong struct{}
)

func (*Hello) Tag() Tag    { return TagHello }
func (*Welcome) Tag() Tag  { return TagWelcome }
func (*Evaluate) Tag() Tag { return TagEvaluate }
func (*Result) Tag() Tag   { return TagResult }
func (Stop) Tag() Tag      { return TagStop }
func (Ping) Tag() Tag      { return TagPing }
func (Pong) Tag() Tag      { return TagPong }
func (*Migrant) Tag() Tag  { return TagMigrant }

// --- encoding -------------------------------------------------------

func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func appendF64s(dst []byte, xs []float64) []byte {
	dst = appendU32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = appendU64(dst, math.Float64bits(x))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func (m *Hello) appendBody(dst []byte) []byte { return appendU64(dst, m.WorkerID) }

func (m *Welcome) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.WorkerID)
	dst = appendString(dst, m.Problem)
	dst = appendU32(dst, m.NumVars)
	dst = appendU32(dst, m.NumObjs)
	return appendU32(dst, m.HeartbeatMillis)
}

func (m *Evaluate) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Lease)
	dst = appendU64(dst, m.SolID)
	dst = appendU32(dst, uint32(m.Operator))
	dst = appendString(dst, m.Problem)
	return appendF64s(dst, m.Vars)
}

func (m *Result) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Lease)
	dst = appendU64(dst, m.SolID)
	dst = appendU32(dst, uint32(m.Operator))
	dst = appendU64(dst, m.EvalNanos)
	dst = appendF64s(dst, m.Objs)
	return appendF64s(dst, m.Constrs)
}

func (Stop) appendBody(dst []byte) []byte { return dst }
func (Ping) appendBody(dst []byte) []byte { return dst }
func (Pong) appendBody(dst []byte) []byte { return dst }

func (m *Migrant) appendBody(dst []byte) []byte {
	dst = appendU32(dst, m.Island)
	dst = appendU64(dst, m.Epoch)
	dst = appendU64(dst, m.SolID)
	dst = appendU32(dst, uint32(m.Operator))
	dst = appendF64s(dst, m.Vars)
	dst = appendF64s(dst, m.Objs)
	return appendF64s(dst, m.Constrs)
}

// AppendFrame serializes a message as one wire frame appended to dst:
//
//	uint32 length | version(1) tag(1) body... crc32(4)
//
// where length counts everything after itself and the CRC (IEEE) is
// computed over version+tag+body. Every message encodes as Version 1:
// trace spans are built in the master from what it measures, so no
// trace context rides the wire. Appending lets hot paths —
// the connection send loop, island migration — reuse one scratch
// buffer instead of allocating a frame per message.
func AppendFrame(dst []byte, m Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, Version, byte(m.Tag()))
	dst = m.appendBody(dst)
	crc := crc32.ChecksumIEEE(dst[start+4:])
	dst = appendU32(dst, crc)
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(dst)-start-4))
	return dst
}

// --- decoding -------------------------------------------------------

// bodyReader is a bounds-checked cursor over a frame body. All getters
// are no-ops once an error is recorded, so decoders can read
// straight-line and check the error once.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *bodyReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("truncated body: need %d bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *bodyReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *bodyReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// f64sInto decodes a float64 slice, reusing dst's backing array when
// its capacity suffices. Empty slices decode as nil — the canonical
// form every other decode path produces — which drops dst.
func (r *bodyReader) f64sInto(dst []float64) []float64 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n*8 > len(r.b) {
		r.fail("float64 slice length %d exceeds remaining %d bytes", n, len(r.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(r.u64())
	}
	return dst
}

func (r *bodyReader) str() string { return r.strReuse("") }

// strReuse decodes a string, returning prev — no allocation — when the
// decoded bytes match it. The hot-path frames repeat the same problem
// name (usually the empty string) on every message, so a sequential
// reader's steady state never copies it.
func (r *bodyReader) strReuse(prev string) string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n > len(r.b) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.b))
		return ""
	}
	b := r.take(n)
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// finish verifies the body was consumed exactly.
func (r *bodyReader) finish(m Message) (Message, error) {
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %s body", len(r.b), m.Tag())
	}
	return m, nil
}

// DecodeScratch holds reusable decode targets for the hot-path
// messages: Evaluate, Result, Migrant. DecodeFrameInto decodes into
// them in place — reusing the message structs, their float64 slices,
// and (when unchanged) the problem string — so a steady-state decode
// allocates nothing. A scratch value belongs to one strictly
// sequential consumer: each successful decode invalidates the message
// returned by the previous one, so the caller must be done with a
// message before decoding the next frame.
type DecodeScratch struct {
	eval    Evaluate
	result  Result
	migrant Migrant
}

// DecodeFrame parses one frame payload (everything after the length
// prefix: version, tag, body, CRC) back into a Message. It never
// panics on malformed input; every defect — short payload, unknown
// version or tag, CRC mismatch, truncated or oversized body fields,
// trailing bytes — is a clean error.
func DecodeFrame(payload []byte) (Message, error) {
	return decodeFrame(payload, nil)
}

// DecodeFrameInto is DecodeFrame with allocation reuse: the hot-path
// messages decode into sc's scratch structs (see DecodeScratch for the
// aliasing contract); everything else — handshake, control —
// decodes fresh, exactly as DecodeFrame would. Accepted inputs, error
// cases, and decoded values are identical to DecodeFrame's.
func DecodeFrameInto(payload []byte, sc *DecodeScratch) (Message, error) {
	return decodeFrame(payload, sc)
}

func decodeFrame(payload []byte, sc *DecodeScratch) (Message, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	if len(payload) < 6 { // version + tag + crc32
		return nil, fmt.Errorf("wire: frame payload too short (%d bytes)", len(payload))
	}
	if payload[0] != Version {
		return nil, fmt.Errorf("wire: protocol version %d, want %d", payload[0], Version)
	}
	content, trailer := payload[:len(payload)-4], payload[len(payload)-4:]
	if got, want := crc32.ChecksumIEEE(content), binary.BigEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("wire: CRC mismatch (computed %08x, frame says %08x)", got, want)
	}
	tag := Tag(payload[1])
	r := &bodyReader{b: content[2:]}

	switch tag {
	case TagHello:
		m := &Hello{WorkerID: r.u64()}
		return r.finish(m)
	case TagWelcome:
		m := &Welcome{
			WorkerID:        r.u64(),
			Problem:         r.str(),
			NumVars:         r.u32(),
			NumObjs:         r.u32(),
			HeartbeatMillis: r.u32(),
		}
		return r.finish(m)
	case TagEvaluate:
		var m *Evaluate
		if sc != nil {
			m = &sc.eval
		} else {
			m = &Evaluate{}
		}
		*m = Evaluate{
			Lease:    r.u64(),
			SolID:    r.u64(),
			Operator: int32(r.u32()),
			Problem:  r.strReuse(m.Problem),
			Vars:     r.f64sInto(m.Vars),
		}
		return r.finish(m)
	case TagResult:
		var m *Result
		if sc != nil {
			m = &sc.result
		} else {
			m = &Result{}
		}
		*m = Result{
			Lease:     r.u64(),
			SolID:     r.u64(),
			Operator:  int32(r.u32()),
			EvalNanos: r.u64(),
			Objs:      r.f64sInto(m.Objs),
			Constrs:   r.f64sInto(m.Constrs),
		}
		return r.finish(m)
	case TagStop:
		return r.finish(Stop{})
	case TagPing:
		return r.finish(Ping{})
	case TagPong:
		return r.finish(Pong{})
	case TagMigrant:
		var m *Migrant
		if sc != nil {
			m = &sc.migrant
		} else {
			m = &Migrant{}
		}
		*m = Migrant{
			Island:   r.u32(),
			Epoch:    r.u64(),
			SolID:    r.u64(),
			Operator: int32(r.u32()),
			Vars:     r.f64sInto(m.Vars),
			Objs:     r.f64sInto(m.Objs),
			Constrs:  r.f64sInto(m.Constrs),
		}
		return r.finish(m)
	}
	return nil, fmt.Errorf("wire: unknown message tag %d", uint8(tag))
}

// ReadMessageBuf reads one length-prefixed frame and decodes it,
// reusing a payload buffer: the frame payload is read into buf when
// its capacity suffices, and the (possibly grown) buffer is returned
// for the caller to thread into the next call. Frames larger than
// ReuseLimit get a one-off allocation that is not retained. The
// returned Message never aliases the buffer — decoding copies every
// field out — so the buffer is free for reuse immediately.
func ReadMessageBuf(r io.Reader, buf []byte) (Message, []byte, error) {
	payload, buf, err := readFrame(r, buf)
	if err != nil {
		return nil, buf, err
	}
	m, err := DecodeFrame(payload)
	return m, buf, err
}

// readFrame reads one length-prefixed frame payload, into buf when
// possible (see ReadMessageBuf for the reuse contract). The length
// prefix is read into buf too — a stack array would escape into the
// io.ReadFull interface call and cost an allocation per frame.
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, buf, fmt.Errorf("wire: frame length %d exceeds limit %d", n, MaxFrame)
	}
	var payload []byte
	switch {
	case int(n) <= cap(buf):
		payload = buf[:n]
	case n <= ReuseLimit:
		buf = make([]byte, n)
		payload = buf
	default:
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, buf, fmt.Errorf("wire: short frame: %w", err)
	}
	return payload, buf, nil
}
