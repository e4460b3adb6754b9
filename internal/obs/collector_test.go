package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestMintTraceIDDeterministicAndNonZero(t *testing.T) {
	if got, want := MintTraceID(7, 42), MintTraceID(7, 42); got != want {
		t.Fatalf("minting is not deterministic: %x vs %x", got, want)
	}
	if MintTraceID(7, 42) == MintTraceID(8, 42) {
		t.Fatal("different run ids minted the same trace id")
	}
	if MintTraceID(7, 42) == MintTraceID(7, 43) {
		t.Fatal("different keys minted the same trace id")
	}
	for key := uint64(0); key < 1000; key++ {
		if MintTraceID(0, key) == 0 {
			t.Fatalf("key %d minted trace id 0 (reserved for untraced)", key)
		}
	}
}

func TestSampleHead(t *testing.T) {
	id := MintTraceID(1, 1)
	if SampleHead(id, 0) {
		t.Fatal("rate 0 sampled a trace")
	}
	if !SampleHead(id, 1) {
		t.Fatal("rate 1 skipped a trace")
	}
	// The decision is a pure function of the id: stable across calls.
	if SampleHead(id, 0.5) != SampleHead(id, 0.5) {
		t.Fatal("sampling decision is not deterministic")
	}
	// Over many ids the sampled fraction approaches the rate.
	const n = 20000
	hits := 0
	for key := uint64(0); key < n; key++ {
		if SampleHead(MintTraceID(3, key), 0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("rate 0.3 sampled %.3f of traces", frac)
	}
}

// driveEval walks one evaluation through the collector's protocol and
// observation hooks with fixed durations.
func driveEval(c *Collector, worker int, item uint64, grantAt, endAt float64) {
	c.TraceGrant(worker, item, grantAt)
	c.ObserveTCSend(item, 0.001)
	c.ObserveTF(item, 0.5)
	c.ObserveQueueWait(item, 0.01)
	c.ObserveTCRecv(item, 0.002)
	c.TraceResult(worker, item, endAt, true)
	c.ObserveTA(item, 0.003)
}

func TestCollectorAssemblesEvalTree(t *testing.T) {
	c := NewCollector(CollectorConfig{RunID: 9, Rate: 1})
	driveEval(c, 2, 1, 10.0, 11.0)

	f := c.Forest()
	if len(f) != 1 {
		t.Fatalf("forest has %d roots, want 1", len(f))
	}
	root := f[0]
	if root.Name != "eval" || root.TraceID != MintTraceID(9, 1) || root.Worker != 2 {
		t.Fatalf("unexpected root span %+v", root)
	}
	if root.Start != 10.0 {
		t.Fatalf("root starts at %v, want grant time 10.0", root.Start)
	}
	// The root covers grant to archive-insert: result time plus T_A.
	if want := 11.0 + 0.003; math.Abs(root.End-want) > 1e-12 {
		t.Fatalf("root ends at %v, want %v", root.End, want)
	}
	wantOrder := []string{"tc.send", "tf", "queue.wait", "tc.recv", "ta"}
	if len(root.Children) != len(wantOrder) {
		t.Fatalf("root has %d children, want %d", len(root.Children), len(wantOrder))
	}
	for i, name := range wantOrder {
		ch := root.Children[i]
		if ch.Name != name {
			t.Fatalf("child %d is %q, want %q", i, ch.Name, name)
		}
		if ch.TraceID != root.TraceID || ch.Parent != root.SpanID {
			t.Fatalf("child %q not linked to root: %+v", name, ch)
		}
	}
	// tf is placed backwards from the result time through the queued
	// and inbound-transport delays.
	tf := root.Children[1]
	if want := 11.0 - 0.002 - 0.01 - 0.5; math.Abs(tf.Start-want) > 1e-12 {
		t.Fatalf("tf starts at %v, want %v", tf.Start, want)
	}

	att := f.Attribution()
	if att.Evals != 1 || att.Expired != 0 {
		t.Fatalf("attribution %+v, want 1 completed eval", att)
	}
	if att.TF.N != 1 || math.Abs(att.TF.Sum-0.5) > 1e-12 {
		t.Fatalf("attribution TF %+v, want one 0.5s sample", att.TF)
	}
	if att.Wall <= 0 || att.TF.Share <= 0 {
		t.Fatalf("attribution has no wall/share: %+v", att)
	}
}

func TestCollectorResubmitSharesTrace(t *testing.T) {
	c := NewCollector(CollectorConfig{RunID: 5, Rate: 1})
	c.TraceGrant(1, 10, 0)
	c.TraceExpire(1, 10, 2.0)
	c.TraceResubmit(10, 11)
	c.TraceGrant(3, 11, 2.5)
	c.TraceResult(3, 11, 3.0, true)

	f := c.Forest()
	if len(f) != 2 {
		t.Fatalf("forest has %d roots, want expired parent + completed clone", len(f))
	}
	parent, clone := f[0], f[1]
	if parent.Item != 10 || parent.Status != "expired" || clone.Item != 11 || clone.Status != "" {
		t.Fatalf("roots %+v, %+v; want expired item 10 then completed item 11", parent, clone)
	}
	if want := MintTraceID(5, 10); parent.TraceID != want || clone.TraceID != want {
		t.Fatalf("lineage traces %x and %x, want the root's %x", parent.TraceID, clone.TraceID, want)
	}
	if clone.SpanID == parent.SpanID {
		t.Fatal("clone reused the parent's span id")
	}
}

func TestCollectorEmissionForcing(t *testing.T) {
	c := NewCollector(CollectorConfig{RunID: 1, Rate: 0})
	driveEval(c, 1, 100, 0, 1)
	driveEval(c, 2, 101, 0, 1)
	if f := c.Forest(); len(f) != 0 {
		t.Fatalf("rate-0 forest has %d spans, want 0", len(f))
	}
	// Expiry forces emission regardless of the rate.
	c.TraceGrant(3, 102, 2)
	c.TraceExpire(3, 102, 4)
	// So does flagging a worker as a straggler.
	c.ForceWorker(2)
	f := c.Forest()
	if len(f) != 2 {
		t.Fatalf("forest has %d spans, want the expired eval and worker 2's", len(f))
	}
	for _, s := range f {
		if s.Worker != 2 && s.Status != "expired" {
			t.Fatalf("span %+v is neither forced nor expired", s)
		}
	}
}

func TestCollectorStaleResultIgnored(t *testing.T) {
	c := NewCollector(CollectorConfig{RunID: 1, Rate: 1})
	c.TraceGrant(1, 7, 0)
	c.TraceResult(1, 7, 1, false) // stale: lease already gone
	f := c.Forest()
	if len(f) != 1 || f[0].Status != "open" {
		t.Fatalf("stale result closed the span: %+v", f[0])
	}
}

func TestCollectorSpanLimit(t *testing.T) {
	c := NewCollector(CollectorConfig{RunID: 1, Rate: 1, Limit: 4})
	for i := uint64(1); i <= 10; i++ {
		c.TraceGrant(0, i, float64(i))
	}
	if c.Dropped() == 0 {
		t.Fatal("limit 4 dropped nothing across 10 grants")
	}
	if f := c.Forest(); len(f) != 4 {
		t.Fatalf("forest has %d spans, want the 4 under the limit", len(f))
	}
}

func TestChromeForestExport(t *testing.T) {
	// Island A (forest 0) evaluates and emigrates; island B applies the
	// migrant from source island 0.
	a := NewCollector(CollectorConfig{RunID: 1, Rate: 1})
	driveEval(a, 1, 1, 0, 1)
	a.ObserveEmigrant(1, 1.5)

	b := NewCollector(CollectorConfig{RunID: 2, Rate: 1})
	driveEval(b, 1, 1, 0, 1)
	b.TraceMigrant(0, 1, 1.6)

	var buf bytes.Buffer
	if err := WriteChromeForests(&buf, []string{"isl-a", "isl-b"}, []Forest{a.Forest(), b.Forest()}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("export failed Chrome trace validation: %v", err)
	}

	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			PID   int     `json:"pid"`
			ID    string  `json:"id"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var flowStart, flowFinish string
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e.Name+"/"+e.Phase]++
		if e.Name == "migrate" && e.Phase == "s" {
			flowStart = e.ID
		}
		if e.Name == "migrate" && e.Phase == "f" {
			flowFinish = e.ID
		}
	}
	if counts["eval/X"] != 2 {
		t.Fatalf("export has %d eval slices, want 2 (one per island)", counts["eval/X"])
	}
	if counts["emigrant/i"] != 1 || counts["migrant/i"] != 1 {
		t.Fatalf("export lacks migration instants: %v", counts)
	}
	if counts["grant/s"] != 2 || counts["result/f"] != 2 {
		t.Fatalf("export lacks grant/result flow arrows: %v", counts)
	}
	if flowStart == "" || flowStart != flowFinish {
		t.Fatalf("emigrant flow id %q does not meet migrant flow id %q — the cross-island arrow is broken", flowStart, flowFinish)
	}
}
