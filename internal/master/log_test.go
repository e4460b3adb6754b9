package master

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"borgmoea/internal/reclog"
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

// sampleLogV2 is sampleLog naming its run: a version-2 log.
func sampleLogV2() *Log {
	l := sampleLog()
	l.Meta.Run = &RunHeader{
		Spec:        &Spec{Problem: "DTLZ2", Objectives: 3, Evaluations: 42, Epsilon: 0.1, Seed: 7, QualityEvery: 10},
		SubmittedAt: "2026-01-02T03:04:05.123456789Z", SubmittedSeconds: 1.5,
	}
	return l
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

// TestLogVersions: a log naming its run is version 2 and reads back
// whole; one without a run header is version 1, its header exactly
// HeaderSize bytes, as every log was before version 2.
func TestLogVersions(t *testing.T) {
	for _, c := range []struct {
		log     *Log
		version byte
	}{{sampleLog(), 1}, {sampleLogV2(), 2}} {
		var buf bytes.Buffer
		if _, err := c.log.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if raw[4] != c.version {
			t.Fatalf("version byte %d, want %d", raw[4], c.version)
		}
		got, err := ReadLog(bytes.NewReader(raw))
		if err != nil || !reflect.DeepEqual(got, c.log) {
			t.Fatalf("v%d round trip: err %v\n  wrote %+v\n  read  %+v", c.version, err, c.log, got)
		}
		hdr, err := ReadLogHeader(bytes.NewReader(raw))
		if err != nil || !reflect.DeepEqual(hdr.Meta, c.log.Meta) || hdr.Elapsed != c.log.Elapsed || hdr.Events != nil {
			t.Fatalf("v%d ReadLogHeader = %+v, %v; want %+v and no events", c.version, hdr, err, c.log.Meta)
		}
		streamed := streamedLog(t, c.log)
		if n := StreamLen(c.log.Meta, len(c.log.Events)); int64(len(streamed)) != n {
			t.Fatalf("v%d: streamed %d bytes, StreamLen says %d", c.version, len(streamed), n)
		}
	}
	if n := StreamLen(LogMeta{}, 0); n != HeaderSize {
		t.Fatalf("a version-1 header is %d bytes, want %d", n, HeaderSize)
	}
}

// TestReadLogRejectsBadRunHeader: a version-2 header whose document is
// over MaxSpecBytes, cut short, not JSON, names no spec or is not in
// canonical form is a clean error — and a claimed length of 2^32-1 is
// refused before anything is allocated for it.
func TestReadLogRejectsBadRunHeader(t *testing.T) {
	raw := streamedLog(t, sampleLogV2())
	withDoc := func(n uint32, doc string) []byte {
		out := append([]byte(nil), raw[:HeaderSize]...)
		out = binary.BigEndian.AppendUint32(out, n)
		return append(out, doc...)
	}
	doc := func(s string) []byte { return withDoc(uint32(len(s)), s) }
	cases := map[string][]byte{
		"length 2^32-1":     withDoc(math.MaxUint32, ""),
		"over MaxSpecBytes": withDoc(MaxSpecBytes+1, ""),
		"short document":    withDoc(100, `{"spec":`),
		"short length":      raw[:HeaderSize+2],
		"not JSON":          doc(`spec=DTLZ2`),
		"no spec":           doc(`{"spec":null}`),
		"empty object":      doc(`{}`),
		"not canonical":     doc(`{"spec": {"problem":"DTLZ2","evaluations":42}}`),
		"unknown field":     doc(`{"spec":{"problem":"DTLZ2","evaluations":42},"extra":1}`),
		"trailing data":     doc(`{"spec":{"problem":"DTLZ2","evaluations":42}}x`),
	}
	for name, data := range cases {
		if _, err := ReadLog(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadLog accepted the header", name)
		}
	}
	huge := withDoc(math.MaxUint32, "")
	if allocs := testing.AllocsPerRun(10, func() { ReadLog(bytes.NewReader(huge)) }); allocs > 20 {
		t.Errorf("rejecting a 2^32-1-byte claim allocated %v times", allocs)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ReadLog(bytes.NewReader(huge)) //nolint:errcheck // rejected above
	runtime.ReadMemStats(&ms1)
	if d := ms1.TotalAlloc - ms0.TotalAlloc; d > 1<<20 {
		t.Errorf("rejecting a 2^32-1-byte claim allocated %d bytes", d)
	}
	if _, err := ReadLog(bytes.NewReader(doc(`{"spec":{"problem":"DTLZ2","evaluations":42}}`))); err != nil {
		t.Errorf("canonical minimal header rejected: %v", err)
	}
}

// TestCoreKeepsRunHeader: the Core's configuration stamps, at NewCore
// and at AttachLog, leave the recorder's run header in place.
func TestCoreKeepsRunHeader(t *testing.T) {
	log := sampleLogV2()
	run := log.Meta.Run
	c := NewCore(Config{Budget: 9, Policy: ScheduledOffspring, LeaseTimeout: 2, Alg: &stubAlg{}, Log: log})
	want := LogMeta{Policy: ScheduledOffspring, Budget: 9, LeaseTimeout: 2, Run: run}
	if log.Meta != want {
		t.Fatalf("NewCore stamped %+v, want %+v", log.Meta, want)
	}
	other := sampleLogV2()
	c.AttachLog(other)
	if other.Meta.Run == nil || other.Meta.Budget != 9 {
		t.Fatalf("AttachLog stamped %+v", other.Meta)
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
func streamedSample(t testing.TB) []byte { return streamedLog(t, sampleLog()) }

// streamedLog is l as a LogWriter writes it.
func streamedLog(t testing.TB, l *Log) []byte {
	var buf bytes.Buffer
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

// FuzzReadLog: ReadLog never panics, whatever it accepts survives a
// WriteTo → ReadLog round trip unchanged, and a log it returns with an
// error is the input's intact prefix: streamed back out, it is the
// input's header and leading records byte for byte, up to the two
// header fields a stream writes canonically (elapsed 0, stream count).
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
	var v2 bytes.Buffer
	if _, err := sampleLogV2().WriteTo(&v2); err != nil {
		f.Fatal(err)
	}
	raw2 := v2.Bytes()
	f.Add(raw2)
	streamed2 := streamedLog(f, sampleLogV2())
	f.Add(streamed2)
	f.Add(streamed2[:len(streamed2)-5])      // torn tail
	f.Add(patched(raw2, HeaderSize+4, '['))  // not the document
	f.Add(patched(raw2, HeaderSize, 0xff))   // length over the cap
	f.Add(patched(raw2, HeaderSize+3, 0x10)) // length short of the document
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			if l != nil {
				checkPrefix(t, data, l)
			}
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

// checkPrefix fails unless l, streamed, is data's header and its first
// len(l.Events) records, with the header's elapsed time and count in
// their streamed form, and unless the record after them is cut short or
// has a bad kind: the prefix is the longest readable one.
func checkPrefix(t *testing.T, data []byte, l *Log) {
	t.Helper()
	n := StreamLen(l.Meta, len(l.Events))
	if int64(len(data)) < n {
		t.Fatalf("prefix of %d events is longer than the %d-byte input", len(l.Events), len(data))
	}
	if next := n + EventSize; int64(len(data)) >= next {
		if kind := EventKind(data[n]); kind >= EvJoin && kind <= EvQuality {
			t.Fatalf("prefix of %d events stops before a whole record of kind %d", len(l.Events), kind)
		}
	}
	want := append([]byte(nil), data[:n]...)
	binary.BigEndian.PutUint64(want[HeaderSize-16:], 0)
	binary.BigEndian.PutUint64(want[HeaderSize-8:], reclog.Stream)
	var got bytes.Buffer
	lw, err := NewLogWriter(&got, l.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range l.Events {
		if err := lw.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the %d-event prefix returned with an error is not the input's leading bytes", len(l.Events))
	}
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

// TestSealLogIsWriteTo: a streamed log, sealed with its event count
// and elapsed time, is byte for byte the log WriteTo writes, in both
// versions.
func TestSealLogIsWriteTo(t *testing.T) {
	for _, orig := range []*Log{sampleLog(), sampleLogV2()} {
		f, err := os.Create(filepath.Join(t.TempDir(), "run.bmel"))
		if err != nil {
			t.Fatal(err)
		}
		lw, err := NewLogWriter(f, orig.Meta)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range orig.Events {
			if err := lw.Record(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := SealLog(f, orig.Meta, orig.Elapsed, uint64(len(orig.Events))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		sealed, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := orig.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sealed, want.Bytes()) {
			t.Fatalf("sealed stream differs from WriteTo:\n  sealed %x\n  want   %x", sealed, want.Bytes())
		}
	}
}

// TestLogSinkStreamsLiveRun pins the Sink contract: a Log with a sink
// passes every event on and retains none, and what it streams is
// exactly what a retaining Log records from the same inputs.
func TestLogSinkStreamsLiveRun(t *testing.T) {
	inputs := []Event{
		{Kind: EvJoin, Worker: 1, At: 0},
		{Kind: EvJoin, Worker: 2, At: 0.5},
		{Kind: EvResult, Worker: 1, Item: 1, At: 1},
		{Kind: EvTick, At: 1.5},
		{Kind: EvResult, Worker: 2, Item: 2, At: 2},
		{Kind: EvResult, Worker: 1, Item: 3, At: 3},
	}
	run := func(log *Log) *Core {
		c := NewCore(Config{Budget: 3, Policy: LazyOffspring, Alg: &stubAlg{}, Log: log})
		for _, ev := range inputs {
			c.Handle(ev)
		}
		if !c.Done() {
			t.Fatalf("run did not complete: %+v", c.Stats())
		}
		return c
	}
	retained := NewLog()
	run(retained)

	streamed := NewLog()
	var buf bytes.Buffer
	var lw *LogWriter
	streamed.Sink = func(ev Event) {
		if lw == nil {
			// NewCore stamped the meta before anything was recorded.
			var err error
			if lw, err = NewLogWriter(&buf, streamed.Meta); err != nil {
				t.Fatal(err)
			}
		}
		if err := lw.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	run(streamed)
	if len(streamed.Events) != 0 {
		t.Fatalf("a Log with a Sink retained %d events", len(streamed.Events))
	}

	loaded, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Events) != len(inputs) || !reflect.DeepEqual(loaded.Events, retained.Events) {
		t.Fatalf("streamed log diverged from the retaining twin's:\n  mem  %+v\n  disk %+v", retained.Events, loaded.Events)
	}
	if loaded.Meta != retained.Meta {
		t.Fatalf("streamed meta = %+v, want %+v", loaded.Meta, retained.Meta)
	}
}
