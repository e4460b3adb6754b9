package master

import (
	"bytes"
	"reflect"
	"testing"
)

func sampleLog() *Log {
	return &Log{
		Meta:    LogMeta{Policy: LazyOffspring, Budget: 42, LeaseTimeout: 1.5},
		Elapsed: 3.25,
		Events: []Event{
			{Kind: EvJoin, Worker: 1, At: 0},
			{Kind: EvJoin, Worker: 2, At: 0.25},
			{Kind: EvResult, Worker: 1, Item: 1, At: 1},
			{Kind: EvTick, At: 2},
			{Kind: EvGone, Worker: 2, At: 2.5},
			{Kind: EvHello, Worker: 2, At: 2.75},
		},
	}
}

func TestLogRoundTrip(t *testing.T) {
	orig := sampleLog()
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip mismatch:\n  wrote %+v\n  read  %+v", orig, got)
	}
}

func TestReadLogRejectsMalformedInput(t *testing.T) {
	var good bytes.Buffer
	if _, err := sampleLog().WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	raw := good.Bytes()

	cases := map[string][]byte{
		"empty":           {},
		"short header":    raw[:10],
		"bad magic":       append([]byte("NOPE"), raw[4:]...),
		"bad version":     patched(raw, 4, 99),
		"truncated event": raw[:len(raw)-5],
		// The retired deferred-apply bit: such a recording interleaved
		// the algorithm's RNG draws differently and must not replay.
		"defer bit":  patched(raw, 5, raw[5]|0x80),
		"bad policy": patched(raw, 5, 0x7f),
		"bad kind":   patched(raw, HeaderSize+EventSize, 0),
		"kind above": patched(raw, HeaderSize, byte(EvQuality)+1),
	}
	for name, data := range cases {
		if _, err := ReadLog(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadLog accepted malformed input", name)
		}
	}

	// An absurd event count must be rejected before allocation (all
	// ones is excluded — that is the streaming sentinel).
	huge := append([]byte{}, raw[:30]...)
	huge = append(huge, 0x10, 0, 0, 0, 0, 0, 0, 0)
	if _, err := ReadLog(bytes.NewReader(huge)); err == nil {
		t.Error("ReadLog accepted an absurd event count")
	}
}

// patched returns a copy of raw with the byte at off replaced.
func patched(raw []byte, off int, b byte) []byte {
	out := append([]byte{}, raw...)
	out[off] = b
	return out
}

// streamedSample is sampleLog as a LogWriter wrote it.
func streamedSample(t testing.TB) []byte {
	var buf bytes.Buffer
	l := sampleLog()
	lw, err := NewLogWriter(&buf, l.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range l.Events {
		if err := lw.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestReadLogStreamedTornTailOnly: a streamed log forgives a short
// trailing record and nothing else — a whole record with a bad kind is
// corruption, not a torn tail.
func TestReadLogStreamedTornTailOnly(t *testing.T) {
	raw := streamedSample(t)
	n := len(sampleLog().Events)
	got, err := ReadLog(bytes.NewReader(raw[:len(raw)-5]))
	if err != nil || len(got.Events) != n-1 {
		t.Fatalf("torn tail: %d events, err %v; want %d, nil", len(got.Events), err, n-1)
	}
	if _, err := ReadLog(bytes.NewReader(patched(raw, len(raw)-EventSize, 0xee))); err == nil {
		t.Fatal("streamed log with an unknown event kind was accepted")
	}
}

// FuzzReadLog: ReadLog never panics, and whatever it accepts survives
// a WriteTo → ReadLog round trip unchanged.
func FuzzReadLog(f *testing.F) {
	var good bytes.Buffer
	if _, err := sampleLog().WriteTo(&good); err != nil {
		f.Fatal(err)
	}
	raw := good.Bytes()
	f.Add(raw)
	f.Add(streamedSample(f))
	f.Add(patched(raw, 5, raw[5]|0x80))           // the retired defer bit
	f.Add(patched(raw, 5, 0x7f))                  // bad policy
	f.Add(patched(raw, HeaderSize+EventSize, 99)) // bad kind
	f.Add(raw[:len(raw)-5])                       // torn tail
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, ev := range l.Events {
			if ev.Kind < EvJoin || ev.Kind > EvQuality {
				t.Fatalf("accepted event %d with kind %d", i, ev.Kind)
			}
		}
		if l.Meta.Policy > ScheduledOffspring {
			t.Fatalf("accepted policy %d", l.Meta.Policy)
		}
		// Byte-level fixpoint (NaN-safe, unlike DeepEqual on floats).
		var b1, b2 bytes.Buffer
		if _, err := l.WriteTo(&b1); err != nil {
			t.Fatalf("re-encode of accepted log failed: %v", err)
		}
		l2, err := ReadLog(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-encoded log failed: %v", err)
		}
		if _, err := l2.WriteTo(&b2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("decode/encode fixpoint violated")
		}
	})
}

func TestCanonicalBytesIgnoresTicksAndTimestamps(t *testing.T) {
	a := sampleLog()
	b := sampleLog()
	// Different clocks, extra polling ticks: same logical protocol.
	for i := range b.Events {
		b.Events[i].At *= 7
	}
	b.Events = append(b.Events, Event{Kind: EvTick, At: 99})
	if !bytes.Equal(a.CanonicalBytes(), b.CanonicalBytes()) {
		t.Fatal("canonical bytes differ across clock scaling and added ticks")
	}
	// A different logical sequence must differ.
	b.Events = append(b.Events, Event{Kind: EvResult, Worker: 1, Item: 2})
	if bytes.Equal(a.CanonicalBytes(), b.CanonicalBytes()) {
		t.Fatal("canonical bytes identical despite a protocol difference")
	}
	if (*Log)(nil).CanonicalBytes() != nil {
		t.Fatal("nil log should canonicalize to nil")
	}
}

func TestReplayReproducesRun(t *testing.T) {
	// Record a small faulty run driven by scripted events.
	alg := &stubAlg{}
	log := NewLog()
	c := NewCore(Config{Budget: 5, LeaseTimeout: 10, Policy: EagerOffspring, Alg: alg, Log: log})
	script := []Event{
		{Kind: EvJoin, Worker: 1, At: 0},
		{Kind: EvJoin, Worker: 2, At: 0},
		{Kind: EvResult, Worker: 1, Item: 1, At: 1},
		{Kind: EvTick, At: 10.5},                     // worker 2's seed (deadline 10) expires
		{Kind: EvResult, Worker: 2, Item: 2, At: 13}, // late: duplicate, but reissues the clone
		{Kind: EvResult, Worker: 1, Item: 3, At: 14},
		{Kind: EvResult, Worker: 2, Item: 4, At: 15}, // the reissued clone
		{Kind: EvResult, Worker: 1, Item: 5, At: 16},
		{Kind: EvResult, Worker: 2, Item: 6, At: 17},
	}
	for _, ev := range script {
		c.Handle(ev)
	}
	if !c.Done() {
		t.Fatalf("scripted run did not complete: %+v", c.Stats())
	}
	log.SetElapsed(17)

	// Serialize and reload, then replay with a fresh stub.
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayAlg := &stubAlg{}
	rc, err := Replay(loaded, ReplayConfig{Alg: replayAlg})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rc.Done() {
		t.Fatal("replay did not complete")
	}
	if rc.Stats() != c.Stats() {
		t.Fatalf("replayed stats %+v != original %+v", rc.Stats(), c.Stats())
	}
	if !reflect.DeepEqual(replayAlg.accepted, alg.accepted) {
		t.Fatalf("replayed accepts %v != original %v", replayAlg.accepted, alg.accepted)
	}
	if loaded.Elapsed != 17 {
		t.Fatalf("elapsed = %v, want 17", loaded.Elapsed)
	}
}

func TestReplayRejectsBadInput(t *testing.T) {
	if _, err := Replay(nil, ReplayConfig{Alg: &stubAlg{}}); err == nil {
		t.Error("replayed a nil log")
	}
	if _, err := Replay(&Log{}, ReplayConfig{Alg: &stubAlg{}}); err == nil {
		t.Error("replayed an empty log")
	}
	if _, err := Replay(sampleLog(), ReplayConfig{}); err == nil {
		t.Error("replayed without an algorithm")
	}
}

func TestLogWriterStreamsAndTolerates(t *testing.T) {
	orig := sampleLog()
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, orig.Meta)
	if err != nil {
		t.Fatalf("NewLogWriter: %v", err)
	}
	for _, ev := range orig.Events {
		if err := lw.Record(ev); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	got, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadLog(streamed): %v", err)
	}
	if got.Meta != orig.Meta {
		t.Fatalf("streamed meta = %+v, want %+v", got.Meta, orig.Meta)
	}
	if got.Elapsed != 0 {
		t.Fatalf("streamed elapsed = %v, want 0 (unknown up front)", got.Elapsed)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Fatalf("streamed events mismatch:\n  wrote %+v\n  read  %+v", orig.Events, got.Events)
	}

	// A crash mid-record costs exactly the trailing partial record.
	trunc := buf.Bytes()[:buf.Len()-5]
	got, err = ReadLog(bytes.NewReader(trunc))
	if err != nil {
		t.Fatalf("ReadLog(truncated stream): %v", err)
	}
	if len(got.Events) != len(orig.Events)-1 {
		t.Fatalf("truncated stream read %d events, want %d", len(got.Events), len(orig.Events)-1)
	}

	// A fixed-count log must still reject truncation (no sentinel).
	var fixed bytes.Buffer
	if _, err := orig.WriteTo(&fixed); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(bytes.NewReader(fixed.Bytes()[:fixed.Len()-5])); err == nil {
		t.Fatal("ReadLog accepted a truncated fixed-count log")
	}
}

func TestLogOnRecordStreamsLiveRun(t *testing.T) {
	log := NewLog()
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 2, Policy: LazyOffspring, Alg: alg, Log: log})
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, log.Meta) // meta stamped by NewCore
	if err != nil {
		t.Fatal(err)
	}
	log.OnRecord = func(ev Event) { lw.Record(ev) }

	c.Handle(Event{Kind: EvJoin, Worker: 1, At: 0})
	c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1, At: 1})
	c.Handle(Event{Kind: EvResult, Worker: 1, Item: 2, At: 2})
	if !c.Done() {
		t.Fatalf("run did not complete: %+v", c.Stats())
	}
	if err := lw.Err(); err != nil {
		t.Fatalf("stream writer error: %v", err)
	}

	loaded, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Events, log.Events) {
		t.Fatalf("streamed log diverged from in-memory log:\n  mem  %+v\n  disk %+v", log.Events, loaded.Events)
	}
	if loaded.Meta != log.Meta {
		t.Fatalf("streamed meta = %+v, want %+v", loaded.Meta, log.Meta)
	}
}
