package wire

import (
	"bytes"
	"net"
	"testing"
	"time"

	"borgmoea/internal/obs"
)

// TestDecodeFrameIntoMatchesDecodeFrame: the scratch decode accepts
// exactly what the fresh decode accepts and produces byte-identical
// messages — including when the scratch is dirty from a previous,
// larger message, the case where slice/string reuse could smear state.
func TestDecodeFrameIntoMatchesDecodeFrame(t *testing.T) {
	var sc DecodeScratch
	dirty := []Message{
		&Evaluate{Lease: 1, Problem: "SOMETHING_ELSE", Vars: make([]float64, 64)},
		&Result{Lease: 2, Objs: make([]float64, 64), Constrs: make([]float64, 8)},
		&Migrant{Island: 1, Vars: make([]float64, 64), Objs: make([]float64, 64), Constrs: make([]float64, 8)},
	}
	for _, m := range dirty {
		if _, err := DecodeFrameInto(EncodeFrame(m)[4:], &sc); err != nil {
			t.Fatalf("dirtying decode: %v", err)
		}
	}
	// Element pointers prove backing-array reuse when a smaller message
	// of the same tag arrives next. (Done before the sample sweep: a
	// nil-Vars sample legitimately drops the scratch backing array.)
	evalBacking := &sc.eval.Vars[0]
	small := EncodeFrame(&Evaluate{Lease: 3, Vars: []float64{0.5, 0.25}})
	got, err := DecodeFrameInto(small[4:], &sc)
	if err != nil {
		t.Fatal(err)
	}
	if ev := got.(*Evaluate); &ev.Vars[0] != evalBacking {
		t.Error("small Evaluate did not reuse the scratch Vars backing array")
	}

	for _, m := range sampleMessages() {
		frame := EncodeFrame(m)
		got, err := DecodeFrameInto(frame[4:], &sc)
		if err != nil {
			t.Fatalf("%s: scratch decode: %v", m.Tag(), err)
		}
		if re := EncodeFrame(got); !bytes.Equal(re, frame) {
			t.Errorf("%s: scratch decode re-encodes differently:\n  in  %x\n  out %x", m.Tag(), frame, re)
		}
		switch g := got.(type) {
		case *Evaluate:
			if g != &sc.eval {
				t.Errorf("%s: scratch decode allocated a fresh Evaluate", m.Tag())
			}
		case *Result:
			if g != &sc.result {
				t.Errorf("%s: scratch decode allocated a fresh Result", m.Tag())
			}
		case *Migrant:
			if g != &sc.migrant {
				t.Errorf("%s: scratch decode allocated a fresh Migrant", m.Tag())
			}
		}
	}

	// Malformed inputs must fail identically through both paths.
	bad := flip(EncodeFrame(&Result{Lease: 9, Objs: []float64{1, 2}})[4:], 10)
	if m, err := DecodeFrameInto(bad, &sc); err == nil {
		t.Fatalf("scratch decode accepted corrupt frame: %v", m)
	}
}

// TestReadMessageBufReusesBuffer: the threaded buffer grows to the
// largest frame seen (under ReuseLimit), stays stable in steady state,
// and is not grown by an oversized frame.
func TestReadMessageBufReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for _, want := range msgs {
		m, next, err := ReadMessageBuf(&stream, buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Tag(), err)
		}
		if !bytes.Equal(EncodeFrame(m), EncodeFrame(want)) {
			t.Fatalf("round-trip mismatch at %s", want.Tag())
		}
		buf = next
	}
	if stream.Len() != 0 {
		t.Fatalf("%d leftover bytes", stream.Len())
	}
	if cap(buf) == 0 || cap(buf) > ReuseLimit {
		t.Fatalf("buffer capacity %d after small frames, want (0, %d]", cap(buf), ReuseLimit)
	}

	// Steady state: re-reading frames that fit returns the same buffer.
	stable := cap(buf)
	for i := 0; i < 3; i++ {
		stream.Reset()
		if err := WriteMessage(&stream, msgs[4]); err != nil {
			t.Fatal(err)
		}
		_, next, err := ReadMessageBuf(&stream, buf)
		if err != nil {
			t.Fatal(err)
		}
		if cap(next) != stable {
			t.Fatalf("steady-state read changed buffer capacity %d -> %d", stable, cap(next))
		}
		buf = next
	}

	// A frame above ReuseLimit decodes fine but must not be retained.
	big := &Evaluate{Lease: 1, Vars: make([]float64, ReuseLimit/8+16)}
	stream.Reset()
	if err := WriteMessage(&stream, big); err != nil {
		t.Fatal(err)
	}
	m, next, err := ReadMessageBuf(&stream, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*Evaluate); len(got.Vars) != len(big.Vars) {
		t.Fatalf("oversized frame decoded %d vars, want %d", len(got.Vars), len(big.Vars))
	}
	if cap(next) != stable {
		t.Fatalf("oversized frame was retained: capacity %d -> %d", stable, cap(next))
	}
}

// TestRecvSteadyStateAllocs pins the zero-allocation receive: framing
// into the reused payload buffer plus scratch decode allocates nothing
// once warm.
func TestRecvSteadyStateAllocs(t *testing.T) {
	frame := EncodeFrame(&Result{
		Lease: 1, SolID: 2, Operator: 3, EvalNanos: 4,
		Objs: []float64{1, 2, 3, 4, 5}, Constrs: []float64{0.5},
		Trace: obs.SpanContext{TraceID: 7, SpanID: 9, Flags: obs.FlagSampled},
	})
	r := bytes.NewReader(frame)
	var buf []byte
	var sc DecodeScratch
	read := func() {
		r.Reset(frame)
		payload, next, err := readFrame(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = next
		if _, err := DecodeFrameInto(payload, &sc); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the buffer and scratch
	if avg := testing.AllocsPerRun(100, read); avg != 0 {
		t.Fatalf("steady-state receive allocates %v times per frame, want 0", avg)
	}
}

// TestConnRecvReuseMessages: with the option on, sequential receives
// of the same tag return the same message struct; with it off, they
// return distinct ones.
func TestConnRecvReuseMessages(t *testing.T) {
	recvTwo := func(reuse bool) (a, b *Evaluate) {
		t.Helper()
		pa, pb := net.Pipe()
		sender := newConn(pa, Options{Heartbeat: -1, WriteTimeout: time.Second})
		receiver := newConn(pb, Options{Heartbeat: -1, IdleTimeout: time.Second, ReuseMessages: reuse})
		defer sender.Close()
		defer receiver.Close()
		go func() {
			sender.Send(&Evaluate{Lease: 1, Vars: []float64{1, 2}})
			sender.Send(&Evaluate{Lease: 2, Vars: []float64{3, 4}})
		}()
		m1, err := receiver.Recv()
		if err != nil {
			t.Fatal(err)
		}
		a = m1.(*Evaluate)
		if a.Lease != 1 || len(a.Vars) != 2 || a.Vars[0] != 1 {
			t.Fatalf("first recv decoded %+v", a)
		}
		m2, err := receiver.Recv()
		if err != nil {
			t.Fatal(err)
		}
		b = m2.(*Evaluate)
		if b.Lease != 2 || len(b.Vars) != 2 || b.Vars[0] != 3 {
			t.Fatalf("second recv decoded %+v", b)
		}
		return a, b
	}
	if a, b := recvTwo(true); a != b {
		t.Error("ReuseMessages on: receives returned distinct structs")
	}
	if a, b := recvTwo(false); a == b {
		t.Error("ReuseMessages off: receives shared a struct")
	}
}

// grantResultRoundTrip returns the full codec round trip of one
// evaluation — master encodes a grant, worker decodes it into scratch,
// fills a Result reusing its buffers, encodes it back, master decodes
// the result into scratch — the per-evaluation wire cost of the
// distributed driver. Each call grants the next lease. The call is
// made once here, so the frame buffers and scratches start warm.
func grantResultRoundTrip(tb testing.TB) func() {
	vars := make([]float64, 11)
	for i := range vars {
		vars[i] = float64(i) / 11
	}
	ev := &Evaluate{
		Lease: 1, SolID: 1, Operator: 2, Vars: vars,
		Trace: obs.SpanContext{TraceID: 7, SpanID: 9, Flags: obs.FlagSampled},
	}
	var gbuf, rbuf []byte
	var workerSc, masterSc DecodeScratch
	var res Result
	roundTrip := func() {
		ev.Lease++
		gbuf = AppendFrame(gbuf[:0], ev)
		m, err := DecodeFrameInto(gbuf[4:], &workerSc)
		if err != nil {
			tb.Fatal(err)
		}
		req := m.(*Evaluate)
		res.Lease, res.SolID, res.Operator = req.Lease, req.SolID, req.Operator
		res.EvalNanos = 12345
		res.Objs = growF64(res.Objs, 5)
		for i := range res.Objs {
			res.Objs[i] = req.Vars[i] * 2
		}
		res.Trace = req.Trace
		rbuf = AppendFrame(rbuf[:0], &res)
		m2, err := DecodeFrameInto(rbuf[4:], &masterSc)
		if err != nil {
			tb.Fatal(err)
		}
		if m2.(*Result).Lease != ev.Lease {
			tb.Fatal("lease mismatch")
		}
	}
	roundTrip()
	return roundTrip
}

// TestGrantResultRoundTripNoAllocs pins both halves of the wire's
// steady state together: once warm, a grant and its result cross the
// codec without touching the heap (TestRecvSteadyStateAllocs covers
// the receive half alone).
func TestGrantResultRoundTripNoAllocs(t *testing.T) {
	if avg := testing.AllocsPerRun(1000, grantResultRoundTrip(t)); avg != 0 {
		t.Fatalf("grant-result round trip allocates %v times per evaluation, want 0", avg)
	}
}

// BenchmarkGrantResultRoundTrip times grantResultRoundTrip.
func BenchmarkGrantResultRoundTrip(b *testing.B) {
	roundTrip := grantResultRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
