package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("evals")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("evals") != c {
		t.Fatal("re-lookup returned a different counter")
	}
	g := r.Gauge("live")
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestDisabledRegistryNoOps(t *testing.T) {
	// Everything on the nil registry and its nil instruments must be
	// callable and inert.
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 556.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Buckets: ≤1 → {0.5, 1}, ≤10 → {5}, ≤100 → {50}, overflow → {500}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	// Median falls in the first bucket; p>0.99 lands near the top.
	if q := h.Quantile(0.5); q < 0 || q > 10 {
		t.Fatalf("p50 = %v outside [0,10]", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p100 = %v, want overflow lower bound 100", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", nil)
	c := r.Counter("n")
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(0.001)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*each || c.Value() != workers*each {
		t.Fatalf("lost updates: hist=%d counter=%d, want %d", h.Count(), c.Value(), workers*each)
	}
	if got, want := h.Sum(), workers*each*0.001; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m")
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 10, 3)
	if len(b) != 3 || b[0] != 1 || b[1] != 10 || b[2] != 100 {
		t.Fatalf("ExpBuckets = %v", b)
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid ExpBuckets accepted")
				}
			}()
			bad()
		}()
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("master.evaluations").Add(42)
	r.Gauge("master.workers_live").Set(3)
	h := r.Histogram("master.ta_seconds", nil)
	h.Observe(1e-5)
	h.Observe(1e9) // overflow bucket: exercises the "+Inf" encoding

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"master.evaluations", "master.workers_live", "master.ta_seconds"} {
		if _, ok := out[key]; !ok {
			t.Fatalf("metrics JSON missing %q", key)
		}
	}
	// The overflow bucket's bound encodes as the string "+Inf", so
	// decode loosely.
	var hs struct {
		Count   uint64           `json:"count"`
		Buckets []map[string]any `json:"buckets"`
	}
	if err := json.Unmarshal(out["master.ta_seconds"], &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Count != 2 || len(hs.Buckets) != 2 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if le, ok := hs.Buckets[1]["le"].(string); !ok || le != "+Inf" {
		t.Fatalf("overflow bucket le = %v, want \"+Inf\"", hs.Buckets[1]["le"])
	}
}
