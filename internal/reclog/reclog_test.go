package reclog_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"borgmoea/internal/federation"
	"borgmoea/internal/master"
	"borgmoea/internal/reclog"
	"borgmoea/internal/wire"
)

var testFormat = reclog.Format{Name: "test: log", Magic: "TEST", Version: 7}

// rec4 encodes record i of the 4-byte-record test format.
func rec4(dst []byte, i int) []byte { return append(dst, 'r', byte(i>>16), byte(i>>8), byte(i)) }

// seq is the records 0..n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// readAll decodes a testFormat log whose header is the count mode:
// 'c' + u64 count, or 's' for streamed. It returns the record count.
func readAll(r io.Reader) (int, error) {
	rd := testFormat.NewReader(r)
	count := reclog.Stream
	if rd.Header(1)[0] == 'c' {
		count = 0
		for _, b := range rd.Header(8) {
			count = count<<8 | uint64(b)
		}
	}
	n := 0
	recs, err := reclog.Records(rd, 4, count, func(rec []byte) (int, error) {
		if !bytes.Equal(rec, rec4(nil, n)) {
			return 0, errors.New("record mismatch")
		}
		n++
		return n - 1, nil
	})
	return len(recs), err
}

func counted(n uint64) []byte {
	h := []byte{'c'}
	for s := 56; s >= 0; s -= 8 {
		h = append(h, byte(n>>s))
	}
	return h
}

func TestContainerRoundTripAndTornTail(t *testing.T) {
	var buf bytes.Buffer
	if _, err := reclog.WriteAll(testFormat, &buf, counted(5), seq(5), rec4); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if n, err := readAll(bytes.NewReader(raw)); n != 5 || err != nil {
		t.Fatalf("counted: %d records, err %v", n, err)
	}
	// A counted log must hold what it declares: a short tail is an error.
	if _, err := readAll(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("truncated counted log accepted")
	}

	buf.Reset()
	if _, err := reclog.WriteAll(testFormat, &buf, []byte{'s'}, seq(5), rec4); err != nil {
		t.Fatal(err)
	}
	raw = buf.Bytes()
	for cut, want := range map[int]int{0: 5, 1: 4, 3: 4, 4: 4, 5: 3} {
		if n, err := readAll(bytes.NewReader(raw[:len(raw)-cut])); n != want || err != nil {
			t.Errorf("streamed, %d bytes torn: %d records, err %v; want %d, nil", cut, n, err, want)
		}
	}

	// A bad record is an error, and what precedes it is returned with it.
	badRec := append([]byte(nil), raw...)
	badRec[len(badRec)-2*4] = 'x' // record 3 of 5
	for name, c := range map[string]struct {
		data   []byte
		prefix int
	}{
		"empty":                        {[]byte{}, 0},
		"short magic":                  {[]byte("TE"), 0},
		"bad magic":                    {[]byte("NOPE\x07s"), 0},
		"bad version":                  {[]byte("TEST\x08s"), 0},
		"short header":                 {[]byte("TEST\x07"), 0},
		"bad record after 3 good ones": {badRec, 3},
	} {
		if n, err := readAll(bytes.NewReader(c.data)); err == nil || n != c.prefix {
			t.Errorf("%s: %d records, err %v; want %d and an error", name, n, err, c.prefix)
		}
	}
}

// TestContainerPreallocIsCapped: a header claiming 2^40 records over an
// empty body is a truncated log, not a terabyte reservation.
func TestContainerPreallocIsCapped(t *testing.T) {
	var buf bytes.Buffer
	if _, err := reclog.WriteAll(testFormat, &buf, counted(1<<40), nil, rec4); err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(&buf); err == nil || !strings.Contains(err.Error(), "truncated at record 0/") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
}

type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestContainerReadErrorIsNotATornTail: only EOF ends a streamed log
// quietly; an I/O error mid-stream surfaces.
func TestContainerReadErrorIsNotATornTail(t *testing.T) {
	var buf bytes.Buffer
	if _, err := reclog.WriteAll(testFormat, &buf, []byte{'s'}, seq(3), rec4); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err := readAll(&failingReader{data: buf.Bytes()[:buf.Len()-2], err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap the read error", err)
	}
}

// writeCounter counts Write calls and records their sizes.
type writeCounter struct {
	sizes []int
	fail  error
}

func (w *writeCounter) Write(p []byte) (int, error) {
	if w.fail != nil {
		return 0, w.fail
	}
	if len(w.sizes) < cap(w.sizes) {
		w.sizes = append(w.sizes, len(p))
	}
	return len(p), nil
}

// TestStreamingWriterOneWritePerRecord pins what the job server's
// checkpoints rely on: the streaming writer hands every record to the
// underlying writer at once, whole, with nothing held back in a buffer.
func TestStreamingWriterOneWritePerRecord(t *testing.T) {
	wc := writeCounter{sizes: make([]int, 0, 5)}
	lw, err := master.NewLogWriter(&wc, master.LogMeta{Budget: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := lw.Record(master.Event{Kind: master.EvResult, Worker: i, Item: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{master.HeaderSize, master.EventSize, master.EventSize, master.EventSize, master.EventSize}
	if len(wc.sizes) != len(want) {
		t.Fatalf("writes %v, want %v", wc.sizes, want)
	}
	for i := range want {
		if wc.sizes[i] != want[i] {
			t.Fatalf("writes %v, want %v", wc.sizes, want)
		}
	}
	ev := master.Event{Kind: master.EvResult, Worker: 1, Item: 2, At: 3}
	if allocs := testing.AllocsPerRun(100, func() { lw.Record(ev) }); allocs != 0 {
		t.Fatalf("Record allocates %v times per event, want 0", allocs)
	}
	// The first write error is sticky.
	wc.fail = errors.New("disk full")
	if err := lw.Record(master.Event{Kind: master.EvTick}); !errors.Is(err, wc.fail) {
		t.Fatalf("Record err = %v", err)
	}
	wc.fail = nil
	if err := lw.Record(master.Event{Kind: master.EvTick}); err == nil || lw.Err() == nil {
		t.Fatal("write error was not sticky")
	}
}

// countingReader counts Read calls on the reader under it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// migrantLog is a migrant log of n migrants, one per epoch.
func migrantLog(n int) *federation.MigrantLog {
	l := federation.NewMigrantLog()
	for i := 1; i <= n; i++ {
		l.Record(&wire.Migrant{Island: 1, Epoch: uint64(i), SolID: uint64(i), Vars: []float64{0.5}, Objs: []float64{1, 2}})
	}
	return l
}

// TestReadersBufferInternally: handing a run-record reader (an event
// log, a migrant log) a bare file must cost one read per buffer, not
// one per record.
func TestReadersBufferInternally(t *testing.T) {
	const n = 100_000
	ml := &master.Log{Meta: master.LogMeta{Budget: n, Run: &master.RunHeader{Spec: &master.Spec{Problem: "ZDT1", Evaluations: n}}},
		Events: make([]master.Event, n)}
	for i := range ml.Events {
		ml.Events[i].Kind = master.EvTick
	}
	for name, c := range map[string]struct {
		write func(io.Writer) (int64, error)
		read  func(io.Reader) (int, error)
	}{
		"migrants": {migrantLog(n).WriteTo, func(r io.Reader) (int, error) {
			l, err := federation.ReadMigrantLog(r)
			if err != nil {
				return 0, err
			}
			return l.Len(), nil
		}},
		"BMEL": {ml.WriteTo, func(r io.Reader) (int, error) {
			l, err := master.ReadLog(r)
			if err != nil {
				return 0, err
			}
			return len(l.Events), nil
		}},
	} {
		var buf bytes.Buffer
		if _, err := c.write(&buf); err != nil {
			t.Fatal(err)
		}
		size := buf.Len()
		cr := &countingReader{r: &buf}
		got, err := c.read(cr)
		if err != nil || got != n {
			t.Fatalf("%s: %d records, err %v", name, got, err)
		}
		if limit := size/4096 + 4; cr.reads > limit {
			t.Errorf("%s: %d reads for %d bytes, want <= %d", name, cr.reads, size, limit)
		}
	}
}

func golden(t testing.TB, name string) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenFilesRoundTrip: files recorded by the binaries of the
// commit before the container existed read and re-serialise to the
// identical bytes — the on-disk formats did not move. run.bmel, the
// first version-2 log (borg -parallel 4 -tf 0.001 -evals 200
// -quality-every 50 -event-log, as its header says), pins version 2
// the same way.
func TestGoldenFilesRoundTrip(t *testing.T) {
	t.Run("BMEL batch", func(t *testing.T) {
		raw := golden(t, "batch.bmel")
		l, err := master.ReadLog(bytes.NewReader(raw))
		if err != nil || len(l.Events) == 0 {
			t.Fatalf("%d events, err %v", len(l.Events), err)
		}
		var out bytes.Buffer
		if _, err := l.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Fatal("re-serialised BMEL differs from the recorded file")
		}
	})
	t.Run("BMEL streamed, torn tail", func(t *testing.T) {
		raw := golden(t, "streamed-torn.bmel")
		l, err := master.ReadLog(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		whole := master.StreamLen(l.Meta, len(l.Events))
		if torn := int64(len(raw)) - whole; torn <= 0 || torn >= master.EventSize {
			t.Fatalf("fixture has %d trailing bytes, want a partial record", torn)
		}
		var out bytes.Buffer
		lw, err := master.NewLogWriter(&out, l.Meta)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range l.Events {
			if err := lw.Record(ev); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out.Bytes(), raw[:whole]) {
			t.Fatal("re-streamed BMEL differs from the recorded file's consistent prefix")
		}
	})
	t.Run("BMEL version 2", func(t *testing.T) {
		raw := golden(t, "run.bmel")
		l, err := master.ReadLog(bytes.NewReader(raw))
		if err != nil || len(l.Events) == 0 || l.Meta.Run == nil {
			t.Fatalf("%d events, header %+v, err %v", len(l.Events), l.Meta, err)
		}
		if raw[4] != 2 || l.Meta.Run.Spec.Problem != "DTLZ2" || l.Meta.Run.Spec.QualityEvery != 50 {
			t.Fatalf("version %d, run %+v", raw[4], *l.Meta.Run.Spec)
		}
		var out bytes.Buffer
		if _, err := l.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Fatal("re-serialised version-2 BMEL differs from the recorded file")
		}
	})
}

// codecs are the two files of a run record, the event log and the
// migrant log, as read → write functions over bytes.
var codecs = map[string]func([]byte) ([]byte, error){
	"BMEL": func(data []byte) ([]byte, error) {
		l, err := master.ReadLog(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		_, err = l.WriteTo(&out)
		return out.Bytes(), err
	},
	"migrants": func(data []byte) ([]byte, error) {
		l, err := federation.ReadMigrantLog(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		_, err = l.WriteTo(&out)
		return out.Bytes(), err
	},
}

// FuzzContainer runs every input through both files: no reader
// panics, and whatever one accepts re-encodes to bytes that read back
// and re-encode to themselves (NaN-safe, unlike comparing floats).
func FuzzContainer(f *testing.F) {
	var migrants bytes.Buffer
	if _, err := migrantLog(3).WriteTo(&migrants); err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{golden(f, "batch.bmel"), golden(f, "streamed-torn.bmel"), migrants.Bytes(), golden(f, "run.bmel")} {
		f.Add(raw)
		f.Add(raw[:len(raw)-3])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, roundTrip := range codecs {
			b1, err := roundTrip(data)
			if err != nil {
				continue
			}
			b2, err := roundTrip(b1)
			if err != nil {
				t.Fatalf("%s: re-read of re-encoded log failed: %v", name, err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("%s: write→read is not a byte fixpoint", name)
			}
		}
	})
}

// TestNoHandRolledRecordCodecs keeps the container the only place that
// frames a log: a non-test file elsewhere that both declares a 4-byte
// "B…" log magic and loops on io.ReadFull is a fourth copy of the
// header check, record loop and torn-tail rule.
func TestNoHandRolledRecordCodecs(t *testing.T) {
	magic := regexp.MustCompile(`"B[A-Z]{3}"`)
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "reclog" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if m := magic.Find(src); m != nil && bytes.Contains(src, []byte("io.ReadFull(")) {
			t.Errorf("%s declares log magic %s and calls io.ReadFull: frame it through internal/reclog", path, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneRunRecord keeps the event log a run's one record: a non-test
// file under internal/ or cmd/ that names the retired BQLG format,
// builds a .qlog path or writes a spec.json is a second copy of what
// the log's header and its replay hold. The one exception is the
// legacy read of a state directory an older job scheduler wrote.
// Traces are live only: a file that names the retired BTRC trace
// sidecar or builds an island "trace" path records them beside the
// log.
func TestOneRunRecord(t *testing.T) {
	retired := regexp.MustCompile(`BQLG|"qlog"|\.qlog\b`)
	sidecar := regexp.MustCompile(`BTRC|IslandPath\([^)]*"trace"\)|island-(<i>|%d|\d+)\.trace\b`)
	specWrite := regexp.MustCompile(`(?i)(write|create).*spec\.json|spec\.json.*(write|create)`)
	legacyRead := filepath.Join("internal", "jobs", "checkpoint.go")
	root := filepath.Join("..", "..")
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			if m := retired.Find(src); m != nil {
				t.Errorf("%s names %s: a run's quality timeline is its event log's replay", rel, m)
			}
			if m := sidecar.Find(src); m != nil {
				t.Errorf("%s names %s: traces are live only (borg -trace)", rel, m)
			}
			if m := specWrite.Find(src); m != nil {
				t.Errorf("%s writes a spec file (%q): a run's spec is its event log's header", rel, m)
			}
			if bytes.Contains(src, []byte(`"spec.json"`)) && rel != legacyRead {
				t.Errorf("%s names spec.json: only %s reads one, for a state directory written before logs named their run", rel, legacyRead)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
