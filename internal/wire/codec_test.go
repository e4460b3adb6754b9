package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"borgmoea/internal/rng"
)

// sampleMessages returns one representative of every message tag,
// including edge contents (empty slices, NaN/Inf payloads, non-ASCII
// names).
func sampleMessages() []Message {
	return []Message{
		&Hello{},
		&Hello{WorkerID: 42},
		&Welcome{WorkerID: 7, Problem: "DTLZ2_5", NumVars: 14, NumObjs: 5, HeartbeatMillis: 2000},
		&Welcome{Problem: ""},
		&Evaluate{Lease: 1, SolID: 2, Operator: -1, Vars: []float64{0, 0.5, 1}},
		&Evaluate{Lease: math.MaxUint64, Vars: nil},
		&Evaluate{Lease: 9, Problem: "DTLZ2_5", Vars: []float64{0.25}},
		&Welcome{WorkerID: 3, Problem: MultiProblem},
		&Result{Lease: 3, SolID: 4, Operator: 5, EvalNanos: 123456, Objs: []float64{1, 2}, Constrs: []float64{0.25}},
		&Result{Objs: []float64{math.Inf(1), math.NaN(), -0}},
		Stop{},
		Ping{},
		Pong{},
		&Migrant{Island: 3, Epoch: 7, SolID: 99, Operator: 2, Vars: []float64{0.1, 0.9}, Objs: []float64{1, 2, 3}},
		&Migrant{Epoch: 1, Operator: -1, Objs: []float64{math.Inf(-1)}, Constrs: []float64{0}},
	}
}

// TestRoundTripAllTags: encode → decode yields the original message
// for every protocol tag (NaN compared bitwise via re-encode).
func TestRoundTripAllTags(t *testing.T) {
	for _, m := range sampleMessages() {
		frame := AppendFrame(nil, m)
		got, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Tag(), err)
		}
		if got.Tag() != m.Tag() {
			t.Fatalf("tag %s decoded as %s", m.Tag(), got.Tag())
		}
		if re := AppendFrame(nil, got); !bytes.Equal(re, frame) {
			t.Errorf("%s: re-encode differs:\n  in  %x\n  out %x", m.Tag(), frame, re)
		}
	}
}

// TestRoundTripRandomized: property test — random message contents
// survive the codec byte-identically and value-identically.
func TestRoundTripRandomized(t *testing.T) {
	r := rng.New(99)
	randFloats := func() []float64 {
		xs := make([]float64, r.Intn(20))
		for i := range xs {
			xs[i] = r.NormMS(0, 1e6)
		}
		if len(xs) == 0 {
			return nil // codec canonicalizes empty to nil
		}
		return xs
	}
	for i := 0; i < 500; i++ {
		msgs := []Message{
			&Hello{WorkerID: r.Uint64()},
			&Welcome{WorkerID: r.Uint64(), Problem: "UF11", NumVars: uint32(r.Intn(1000)), NumObjs: uint32(r.Intn(16))},
			&Evaluate{Lease: r.Uint64(), SolID: r.Uint64(), Operator: int32(r.Intn(7) - 1), Problem: []string{"", "ZDT1", MultiProblem}[r.Intn(3)], Vars: randFloats()},
			&Result{Lease: r.Uint64(), EvalNanos: r.Uint64(), Objs: randFloats(), Constrs: randFloats()},
			&Migrant{Island: uint32(r.Intn(8)), Epoch: r.Uint64(), Vars: randFloats(), Objs: randFloats()},
		}
		for _, m := range msgs {
			frame := AppendFrame(nil, m)
			got, err := DecodeFrame(frame[4:])
			if err != nil {
				t.Fatalf("decode %s: %v", m.Tag(), err)
			}
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("%s round-trip mismatch:\n  in  %#v\n  out %#v", m.Tag(), m, got)
			}
		}
	}
}

// TestReadWriteMessage exercises the stream framing end to end: the
// frames the connection writer appends, read back through the reader
// the connection uses, one reused buffer threaded through.
func TestReadWriteMessage(t *testing.T) {
	var stream bytes.Buffer
	var frame []byte
	for _, m := range sampleMessages() {
		frame = AppendFrame(frame[:0], m)
		stream.Write(frame)
	}
	var buf []byte
	for _, want := range sampleMessages() {
		got, next, err := ReadMessageBuf(&stream, buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Tag(), err)
		}
		if !bytes.Equal(AppendFrame(nil, got), AppendFrame(nil, want)) {
			t.Fatalf("stream round-trip mismatch at %s", want.Tag())
		}
		buf = next
	}
	if stream.Len() != 0 {
		t.Fatalf("%d leftover bytes", stream.Len())
	}
}

// TestDecodeRejectsMalformed: every class of corruption is a clean
// error, never a panic and never a bogus message.
func TestDecodeRejectsMalformed(t *testing.T) {
	valid := AppendFrame(nil, &Evaluate{Lease: 1, Vars: []float64{1, 2, 3}})[4:]

	cases := map[string][]byte{
		"empty":       {},
		"one byte":    {Version},
		"short":       {Version, byte(TagStop), 0, 0, 0},
		"bad crc":     flip(valid, len(valid)-1),
		"bad body":    flip(valid, 10),
		"version":     flip(valid, 0),
		"trailing":    withCRC(append([]byte{Version, byte(TagStop)}, 0xff)),
		"unknown":     withCRC([]byte{Version, 0x7f}),
		"huge vars":   withCRC(append([]byte{Version, byte(TagEvaluate)}, hugeCountBody()...)),
		"retired tag": withCRC(append([]byte{Version, retiredDeltaTag}, deltaBody()...)),
		// A well-formed frame of the retired traced encoding.
		"version 2": tracedV2(&Evaluate{Lease: 1, SolID: 2}),
	}
	for name, payload := range cases {
		m, err := DecodeFrame(payload)
		if err == nil {
			t.Errorf("%s: decoded %v, want error", name, m)
		}
		if m != nil {
			t.Errorf("%s: non-nil message alongside error", name)
		}
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeFrame(valid[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestReadMessageLimits: a hostile length prefix is rejected before
// allocation, and a short stream is an error.
func TestReadMessageLimits(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, err := ReadMessageBuf(bytes.NewReader(hdr[:]), nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length accepted: %v", err)
	}
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, _, err := ReadMessageBuf(bytes.NewReader(append(hdr[:], 1, 2, 3)), nil); err == nil {
		t.Fatal("short stream accepted")
	}
}

// flip returns a copy of b with one bit inverted at index i.
func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x01
	return c
}

// withCRC appends a valid CRC trailer to a hand-built content prefix,
// isolating body-level defects from checksum defects.
func withCRC(content []byte) []byte {
	frame := append([]byte(nil), content...)
	return appendU32(frame, crc32.ChecksumIEEE(content))
}

// hugeCountBody builds an Evaluate body whose vars count claims more
// floats than the body holds.
func hugeCountBody() []byte {
	var b []byte
	b = appendU64(b, 1) // lease
	b = appendU64(b, 2) // sol id
	b = appendU32(b, 0) // operator
	b = appendU32(b, 1<<30)
	return b
}

// tracedV2 encodes m in the retired version-2 layout: version 2, tag,
// an 18-byte trace header (length byte 17, trace id, span id, flags),
// m's body and the CRC. Decoders reject it.
func tracedV2(m Message) []byte {
	frame := AppendFrame(nil, m)
	b := []byte{2, byte(m.Tag()), 17}
	b = appendU64(b, 0x1234) // trace id
	b = appendU64(b, 0x5678) // span id
	b = append(b, 1)         // flags: sampled
	return withCRC(append(b, frame[6:len(frame)-4]...))
}

// retiredDeltaTag is the tag byte of the Delta frame the federation's
// merging root once received: TagMigrant+1, which no message holds now.
const retiredDeltaTag = byte(TagMigrant) + 1

// deltaBody builds a body in the retired Delta layout: island, seq,
// completed, a member count and one member (operator, vars, objs,
// constrs).
func deltaBody() []byte {
	var b []byte
	b = appendU32(b, 1)   // island
	b = appendU64(b, 1)   // seq
	b = appendU64(b, 100) // completed
	b = appendU32(b, 1)   // member count
	b = appendU32(b, 0)   // operator
	b = appendF64s(b, []float64{0.5})
	b = appendF64s(b, []float64{1, 2})
	return appendF64s(b, nil)
}

// TestDecodeTruncatedDelta: the Delta frame is retired, and its tag
// byte, 9, stays unknown. A whole Delta frame and every truncation of
// it fail to decode cleanly — never a panic, never a message — and the
// whole frame fails as an unknown tag.
func TestDecodeTruncatedDelta(t *testing.T) {
	if retiredDeltaTag != 9 {
		t.Fatalf("retired Delta tag is %d, want 9: a tag value moved", retiredDeltaTag)
	}
	content := append([]byte{Version, retiredDeltaTag}, deltaBody()...)
	for cut := 2; cut <= len(content); cut++ {
		m, err := DecodeFrame(withCRC(content[:cut]))
		if err == nil || m != nil {
			t.Fatalf("Delta frame cut at %d decoded to %v, %v; want an error", cut, m, err)
		}
		if cut == len(content) && !strings.Contains(err.Error(), "unknown message tag 9") {
			t.Fatalf("whole Delta frame: %v, want an unknown-tag error", err)
		}
	}
}

// TestDecodeTruncatedMigrant hardens the migrant decoder, the one
// message with three float slices: a valid frame cut at every byte
// offset is a clean error — never a panic, never a partial message —
// and so is a frame whose inner slice over-claims.
func TestDecodeTruncatedMigrant(t *testing.T) {
	frame := AppendFrame(nil, &Migrant{Island: 9, Epoch: 3, SolID: 512, Operator: 1,
		Vars: []float64{0.1, 0.2, 0.3}, Objs: []float64{1, 2}, Constrs: []float64{0}})[4:]
	// Raw truncations trip the CRC; re-checksummed truncations reach
	// the body decoder. Both must fail cleanly at every cut point.
	content := frame[:len(frame)-4]
	for cut := 0; cut < len(frame); cut++ {
		if m, err := DecodeFrame(frame[:cut]); err == nil {
			t.Fatalf("raw truncation at %d accepted: %v", cut, m)
		}
	}
	for cut := 2; cut < len(content); cut++ {
		m, err := DecodeFrame(withCRC(content[:cut]))
		if err == nil {
			t.Fatalf("truncated body at %d accepted: %v", cut, m)
		}
		if m != nil {
			t.Fatalf("truncated body at %d returned non-nil message", cut)
		}
	}
	// Inner slice over-claims: the objs count says 1<<20.
	var b []byte
	b = appendU32(b, 1)     // island
	b = appendU64(b, 1)     // epoch
	b = appendU64(b, 1)     // sol id
	b = appendU32(b, 0)     // operator
	b = appendU32(b, 0)     // vars: empty
	b = appendU32(b, 1<<20) // objs: hostile count
	if m, err := DecodeFrame(withCRC(append([]byte{Version, byte(TagMigrant)}, b...))); err == nil {
		t.Fatalf("hostile inner count accepted: %v", m)
	}
}
