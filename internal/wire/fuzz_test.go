package wire

import (
	"bytes"
	"testing"

	"borgmoea/internal/obs"
)

// FuzzDecodeFrame feeds arbitrary (and seeded malformed) payloads to
// the frame decoder. Invariants: no panic ever; an error implies a nil
// message; a successful decode implies the payload was canonical — re-
// encoding the message reproduces it byte for byte (so there is exactly
// one wire form per message and corrupted-but-accepted frames are
// impossible).
//
// CI runs this as a short fuzz smoke (go test -fuzz=FuzzDecodeFrame
// -fuzztime=10s ./internal/wire); without -fuzz the seed corpus still
// executes as a regular test.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with every valid message…
	for _, m := range sampleMessages() {
		f.Add(AppendFrame(nil, m)[4:])
	}
	// …and hand-picked malformed shapes: truncations, bit flips,
	// hostile counts, wrong versions.
	valid := AppendFrame(nil, &Result{Lease: 9, Objs: []float64{1, 2, 3, 4, 5}})[4:]
	for cut := 0; cut <= len(valid); cut += 3 {
		f.Add(valid[:cut])
	}
	for i := 0; i < len(valid); i += 5 {
		f.Add(flip(valid, i))
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version + 1, byte(TagStop), 0, 0, 0, 0})
	f.Add(withCRC([]byte{Version, 0xee}))
	f.Add(withCRC(append([]byte{Version, byte(TagEvaluate)}, hugeCountBody()...)))
	// The retired Delta tag, bare and with a body in its old layout.
	f.Add(withCRC([]byte{Version, retiredDeltaTag}))
	f.Add(withCRC(append([]byte{Version, retiredDeltaTag}, deltaBody()...)))

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeFrame(payload)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v returned alongside message %v", err, m)
			}
			checkScratchDecode(t, payload, false)
			return
		}
		re := AppendFrame(nil, m)
		if !bytes.Equal(re[4:], payload) {
			t.Fatalf("accepted non-canonical payload:\n  in  %x\n  out %x", payload, re[4:])
		}
		checkScratchDecode(t, payload, true)
	})
}

// checkScratchDecode holds DecodeFrameInto to DecodeFrame's verdict on
// the same payload: same accept/reject decision, canonical re-encoding
// on accept, and — decoding twice into the same scratch — no smearing
// from the reused slices, strings, or structs.
func checkScratchDecode(t *testing.T, payload []byte, accepted bool) {
	t.Helper()
	var sc DecodeScratch
	for pass := 0; pass < 2; pass++ {
		m, err := DecodeFrameInto(payload, &sc)
		if err != nil {
			if accepted {
				t.Fatalf("scratch decode pass %d rejected an accepted payload: %v", pass, err)
			}
			if m != nil {
				t.Fatalf("scratch decode error %v alongside message %v", err, m)
			}
			return
		}
		if !accepted {
			t.Fatalf("scratch decode pass %d accepted a rejected payload: %v", pass, m)
		}
		if re := AppendFrame(nil, m); !bytes.Equal(re[4:], payload) {
			t.Fatalf("scratch decode pass %d not canonical:\n  in  %x\n  out %x", pass, payload, re[4:])
		}
	}
}

// FuzzDecodeTraced focuses the decoder invariants on the VersionTraced
// trace header: traced frames on every carrier tag, old-version frames
// without the header (backward compat must stay green), headers on
// non-carrier tags, truncated and wrong-length headers, and the
// non-canonical zero trace id. CI runs this as a third fuzz smoke.
func FuzzDecodeTraced(f *testing.F) {
	tc := obs.SpanContext{TraceID: 0x1234, SpanID: 0x5678, Flags: obs.FlagSampled}
	seeds := []Message{
		&Evaluate{Lease: 1, Vars: []float64{0.5}, Trace: tc},
		&Result{Lease: 1, EvalNanos: 9, Objs: []float64{1, 2}, Trace: tc},
		&Migrant{Island: 1, Epoch: 2, Objs: []float64{3}, Trace: tc},
		// The same messages untraced: their frames must stay Version 1.
		&Evaluate{Lease: 1, Vars: []float64{0.5}},
		&Result{Lease: 1, EvalNanos: 9, Objs: []float64{1, 2}},
		&Migrant{Island: 1, Epoch: 2, Objs: []float64{3}},
	}
	for _, m := range seeds {
		f.Add(AppendFrame(nil, m)[4:])
	}
	valid := AppendFrame(nil, seeds[0])[4:]
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	for i := 0; i < len(valid); i += 2 {
		f.Add(flip(valid, i))
	}
	f.Add(withCRC(append([]byte{VersionTraced, byte(TagStop)}, traceHeader(5, 6, 0)...)))
	f.Add(withCRC(append(append([]byte{VersionTraced, byte(TagEvaluate)}, traceHeader(0, 6, 1)...), evalBody()...)))
	f.Add(withCRC(append(append([]byte{VersionTraced, byte(TagEvaluate)}, append([]byte{16}, traceHeader(5, 6, 0)[2:]...)...), evalBody()...)))

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeFrame(payload)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v returned alongside message %v", err, m)
			}
			checkScratchDecode(t, payload, false)
			return
		}
		re := AppendFrame(nil, m)
		if !bytes.Equal(re[4:], payload) {
			t.Fatalf("accepted non-canonical payload:\n  in  %x\n  out %x", payload, re[4:])
		}
		checkScratchDecode(t, payload, true)
	})
}

// FuzzDecodeFederation focuses the same decoder invariants on the
// federation's Migrant frame, whose three float slices and trace
// header have more length fields — and therefore more truncation and
// over-claim shapes — than the flat worker-protocol messages, and on
// the retired Delta tag, which must stay unknown. CI runs this as a
// second fuzz smoke.
func FuzzDecodeFederation(f *testing.F) {
	seeds := []Message{
		&Migrant{Island: 1, Epoch: 2, SolID: 3, Operator: 4, Vars: []float64{0.5, 0.25}, Objs: []float64{1, 2, 3}},
		&Migrant{Operator: -1, Constrs: []float64{0}},
		&Migrant{Island: 2, Epoch: 9, SolID: 4096, Operator: 5, Vars: []float64{0.1, 0.2, 0.3},
			Objs: []float64{2, 4, 8}, Constrs: []float64{1}, Trace: obs.SpanContext{TraceID: 7, SpanID: 8, Flags: obs.FlagSampled}},
	}
	for _, m := range seeds {
		f.Add(AppendFrame(nil, m)[4:])
	}
	valid := AppendFrame(nil, seeds[2])[4:]
	for cut := 0; cut <= len(valid); cut += 2 {
		f.Add(valid[:cut])
	}
	for i := 0; i < len(valid); i += 3 {
		f.Add(flip(valid, i))
	}
	f.Add(withCRC([]byte{Version, retiredDeltaTag}))
	f.Add(withCRC(append([]byte{Version, retiredDeltaTag}, deltaBody()...)))

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeFrame(payload)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v returned alongside message %v", err, m)
			}
			checkScratchDecode(t, payload, false)
			return
		}
		re := AppendFrame(nil, m)
		if !bytes.Equal(re[4:], payload) {
			t.Fatalf("accepted non-canonical payload:\n  in  %x\n  out %x", payload, re[4:])
		}
		checkScratchDecode(t, payload, true)
	})
}
