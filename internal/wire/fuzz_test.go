package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary (and seeded malformed) payloads to
// the frame decoder. Invariants: no panic ever; an error implies a nil
// message; a successful decode implies the payload was canonical — re-
// encoding the message reproduces it byte for byte (so there is exactly
// one wire form per message and corrupted-but-accepted frames are
// impossible). The encoder writes only Version 1, so the invariant also
// rejects every frame of the retired version-2 traced encoding.
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
	// Frames of the retired version-2 traced encoding: well formed on
	// Evaluate and Result, truncated and bit-flipped, on a tag that never
	// carried the header, with a wrong header length, and with the zero
	// trace id.
	traced := tracedV2(&Evaluate{Lease: 1, Vars: []float64{0.5}})
	f.Add(traced)
	f.Add(tracedV2(&Result{Lease: 1, EvalNanos: 9, Objs: []float64{1, 2}}))
	for cut := 0; cut <= len(traced); cut += 4 {
		f.Add(traced[:cut])
	}
	for i := 0; i < len(traced); i += 3 {
		f.Add(flip(traced, i))
	}
	f.Add(tracedV2(Stop{}))
	f.Add(withCRC(append([]byte{2, byte(TagEvaluate), 16}, traced[3:len(traced)-4]...)))
	zero := append([]byte(nil), traced[:len(traced)-4]...)
	copy(zero[3:11], make([]byte, 8))
	f.Add(withCRC(zero))

	f.Fuzz(checkDecode)
}

// checkDecode is the invariant every decode fuzzer holds: no panic; an
// error implies a nil message; an accepted payload re-encodes byte for
// byte; and DecodeFrameInto agrees with DecodeFrame.
func checkDecode(t *testing.T, payload []byte) {
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

// FuzzDecodeFederation focuses the same decoder invariants on the
// federation's Migrant frame, whose three float slices have more
// length fields — and therefore more truncation and over-claim shapes
// — than the flat worker-protocol messages, and on two retired forms
// that must stay rejected: the Delta tag and the version-2 traced
// Migrant. CI runs this as a second fuzz smoke.
func FuzzDecodeFederation(f *testing.F) {
	seeds := []Message{
		&Migrant{Island: 1, Epoch: 2, SolID: 3, Operator: 4, Vars: []float64{0.5, 0.25}, Objs: []float64{1, 2, 3}},
		&Migrant{Operator: -1, Constrs: []float64{0}},
		&Migrant{Island: 2, Epoch: 9, SolID: 4096, Operator: 5, Vars: []float64{0.1, 0.2, 0.3},
			Objs: []float64{2, 4, 8}, Constrs: []float64{1}},
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
	for _, m := range seeds {
		f.Add(tracedV2(m))
	}
	traced := tracedV2(seeds[2])
	for cut := 0; cut < len(traced); cut += 4 {
		f.Add(traced[:cut])
	}

	f.Fuzz(checkDecode)
}

// FuzzDecodeTraced focuses the decoder invariants on the retired
// version-2 traced encoding (version 2, tag, an 18-byte trace header,
// body, CRC), which the decoder must now reject in every shape: well
// formed on Evaluate, Result and Migrant, truncated and bit-flipped, a
// header on a tag that never carried one, a wrong header length and the
// zero trace id. The same messages as version-1 frames are seeded too
// and must still decode canonically. CI runs this as a third fuzz smoke.
func FuzzDecodeTraced(f *testing.F) {
	seeds := []Message{
		&Evaluate{Lease: 1, Vars: []float64{0.5}},
		&Result{Lease: 1, EvalNanos: 9, Objs: []float64{1, 2}},
		&Migrant{Island: 2, Epoch: 9, SolID: 4096, Operator: 5, Vars: []float64{0.1, 0.2, 0.3},
			Objs: []float64{2, 4, 8}, Constrs: []float64{1}},
	}
	for _, m := range seeds {
		f.Add(tracedV2(m))
		f.Add(AppendFrame(nil, m)[4:])
	}
	traced := tracedV2(seeds[0])
	for cut := 0; cut <= len(traced); cut++ {
		f.Add(traced[:cut])
	}
	for i := 0; i < len(traced); i += 2 {
		f.Add(flip(traced, i))
	}
	migrant := tracedV2(seeds[2])
	for cut := 0; cut < len(migrant); cut += 4 {
		f.Add(migrant[:cut])
	}
	f.Add(tracedV2(Stop{}))
	f.Add(withCRC(append([]byte{2, byte(TagEvaluate), 16}, traced[3:len(traced)-4]...)))
	zero := append([]byte(nil), traced[:len(traced)-4]...)
	copy(zero[3:11], make([]byte, 8))
	f.Add(withCRC(zero))

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 0 && payload[0] != Version {
			if m, err := DecodeFrame(payload); err == nil {
				t.Fatalf("accepted a version-%d frame: %v", payload[0], m)
			}
		}
		checkDecode(t, payload)
	})
}
