package master

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"borgmoea/internal/advisor"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// TestTermsFanOut: each sample a master reports reaches every sink once
// — the tally, the histogram, the advisor and, when it belongs to an
// evaluation, that evaluation's trace — and only an accept's T_A lands
// on a trace.
func TestTermsFanOut(t *testing.T) {
	const ta, tc, tf, wait = 3e-6, 2e-6, 0.01, 4e-6
	reg := obs.NewRegistry()
	adv := advisor.New(advisor.Config{})
	col := obs.NewCollector(obs.CollectorConfig{RunID: 1, Rate: 1})
	terms := NewTerms(nil, TermsConfig{
		Meters: NewMeters(reg), Advisor: adv, Trace: col, Capture: true,
		TA: stats.NewConstant(ta), TC: stats.NewConstant(tc), Rng: rng.New(1),
	})
	tracer := terms.Tracer()
	item := &Item{ID: 7}

	// One evaluation's life: grant, evaluate, queue, receive, accept;
	// then a Suggest, which no evaluation owns.
	tracer.TraceGrant(1, item.ID, 0)
	if got := terms.Send(item); got != tc {
		t.Fatalf("Send charged %v, want %v", got, tc)
	}
	terms.Evaluated(1, item, tf)
	terms.Queued(item, wait)
	terms.Recv(item)
	tracer.TraceResult(1, item.ID, 0.02, true)
	terms.Enter()
	if got := terms.Leave(true); got != ta {
		t.Fatalf("Leave charged %v, want %v", got, ta)
	}
	terms.Enter()
	terms.Leave(false)

	for _, c := range []struct {
		name     string
		tally    Tally
		n        uint64
		sum      float64
		captured int
	}{
		{"T_A", terms.TA, 2, 2 * ta, 2},
		{"T_F", terms.TF, 1, tf, 1},
		{"T_C", terms.TC, 2, 2 * tc, 0},
	} {
		if c.tally.N != c.n || math.Abs(c.tally.Sum-c.sum) > 1e-18 || len(c.tally.Samples) != c.captured {
			t.Errorf("%s tally %+v, want n=%d sum=%v and %d samples", c.name, c.tally, c.n, c.sum, c.captured)
		}
	}
	for name, want := range map[string]uint64{MetricTA: 2, MetricTF: 1, MetricTC: 2, MetricQueueWait: 1} {
		if got := reg.Histogram(name, nil).Count(); got != want {
			t.Errorf("%s count %d, want %d", name, got, want)
		}
	}
	r := adv.Report()
	if r.Times.TA != ta || r.Times.TF != tf || r.Times.TC != tc || r.QueueWaitMean != wait {
		t.Errorf("advisor fit %+v queue wait %v, want T_A %v T_F %v T_C %v wait %v", r.Times, r.QueueWaitMean, ta, tf, tc, wait)
	}
	a := col.Forest().Attribution()
	for _, c := range []struct {
		name string
		got  obs.TermStats
		want float64
	}{
		{"ta", a.TA, ta}, {"tf", a.TF, tf}, {"tc_send", a.TCSend, tc}, {"tc_recv", a.TCRecv, tc}, {"queue_wait", a.Wait, wait},
	} {
		// The forest rebuilds each term from span endpoints: equal to
		// rounding.
		if c.got.N != 1 || math.Abs(c.got.Sum-c.want) > 1e-9*c.want {
			t.Errorf("trace %s: n=%d sum=%v, want one sample of %v", c.name, c.got.N, c.got.Sum, c.want)
		}
	}
}

// TestTermsMeasuresTA: without a T_A distribution a section is charged
// its clock's advance — the wall clock's on a socket master, exactly
// the supplied clock's otherwise — and a bare meter (no sinks) still
// tallies.
func TestTermsMeasuresTA(t *testing.T) {
	terms := NewTerms(Wall, TermsConfig{})
	if terms.Tracer() != nil {
		t.Fatal("a meter without a collector handed out a tracer")
	}
	terms.Enter()
	for i := 0; i < 1000; i++ {
		_ = math.Sqrt(float64(i))
	}
	if ta := terms.Leave(true); ta <= 0 || terms.TA.N != 1 || terms.TA.Sum != ta {
		t.Fatalf("measured T_A %v, tally %+v", ta, terms.TA)
	}
	work := 0.0
	counted := NewTerms(func() float64 { return work }, TermsConfig{})
	for _, w := range []float64{0.25, 0.5} {
		counted.Enter()
		work += w
		if ta := counted.Leave(true); ta != w {
			t.Fatalf("counted T_A %v, want the clock's advance %v", ta, w)
		}
		work += 1 // work outside a section is not charged
	}
	terms.Sent(nil, 1e-6)
	terms.Evaluated(0, nil, 1e-3)
	terms.Queued(nil, 1e-6)
	if terms.TC.Mean() != 1e-6 || terms.TF.Mean() != 1e-3 {
		t.Fatalf("tallies T_C %+v T_F %+v", terms.TC, terms.TF)
	}
}

// TestTermsNoAllocs: metering a grant, a result and a critical section
// into the tallies, histograms and advisor allocates nothing once the
// advisor has seen the worker.
func TestTermsNoAllocs(t *testing.T) {
	terms := NewTerms(nil, TermsConfig{
		Meters: NewMeters(obs.NewRegistry()), Advisor: advisor.New(advisor.Config{}),
		TA: stats.NewConstant(1e-6), TC: stats.NewConstant(1e-6), Rng: rng.New(1),
	})
	item := &Item{ID: 1}
	round := func() {
		terms.Send(item)
		terms.Evaluated(1, item, 1e-3)
		terms.Queued(item, 1e-6)
		terms.Recv(item)
		terms.Enter()
		terms.Leave(true)
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg > 0 {
		t.Fatalf("metering one evaluation allocates %.2f objects, want 0", avg)
	}
}

// TestNoHandWiredTerms keeps the four master loops — the asynchronous
// master on each transport (parallel's startMaster, federation's
// SocketMaster), RunSync's and the job scheduler's — from wiring timing
// samples into sinks by hand again: outside this package's Terms, no
// non-test file hands a T_A, T_F, T_C or queue-wait sample to a
// histogram, the advisor or a trace collector. A loop reports each
// sample once, to its master.Terms.
func TestNoHandWiredTerms(t *testing.T) {
	sink := regexp.MustCompile(`\.Observe(TA|TF|TC|TCSend|TCRecv|QueueWait)\(|\.(TA|TF|TC|QueueWait)\.Observe\(`)
	err := filepath.WalkDir("../..", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "../.." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if filepath.ToSlash(path) == "../../internal/master/terms.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if sink.MatchString(line) {
				t.Errorf("%s:%d: %s\n\treport the sample to the loop's master.Terms instead", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
