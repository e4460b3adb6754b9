// Package obs is the run-telemetry subsystem of the reproduction: a
// lightweight metrics registry (counters, gauges, fixed-bucket
// histograms), a structured protocol event journal with a Chrome
// trace_event exporter (trace.go), a live HTTP debug endpoint
// (http.go) and the shared CLI logger (log.go).
//
// The paper's whole argument rests on timing internals — T_A, T_F,
// T_C, master utilization and the queueing dynamics of the
// asynchronous master (Sections IV–V) — so every parallel driver in
// internal/parallel and the TCP connection layer in internal/wire
// record into this package when a Registry/Recorder is attached.
//
// Design constraints, in order:
//
//   - Allocation-free hot path. Instruments are resolved by name once
//     (Registry.Counter/Gauge/Histogram, which take a lock) and then
//     recorded through lock-free atomics. Drivers resolve their
//     instruments before the master loop starts.
//   - Zero cost when disabled. All instrument methods are no-ops on a
//     nil receiver, and a nil *Registry (the Disabled sentinel) hands
//     out nil instruments — so an uninstrumented run pays one
//     predictable nil check per record and nothing else.
//   - Safe for concurrent use. Wall-clock drivers (distributed,
//     wire) record from many goroutines.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Disabled is the nil registry: it hands out nil instruments whose
// methods all no-op, so `cfg.Metrics = obs.Disabled` (or simply
// leaving the field nil) runs a driver without telemetry overhead.
var Disabled *Registry

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-written float64 value (queue depth, live workers).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by dv (CAS loop; safe concurrently). No-op on
// a nil gauge.
func (g *Gauge) Add(dv float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + dv)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution of observations. Bucket i
// counts observations v <= bounds[i]; one implicit overflow bucket
// counts the rest. Observe is lock-free: a binary search over the
// (immutable) bounds plus two atomic adds.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last = overflow
	n       atomic.Uint64
	sumBits atomic.Uint64
	// exemplars holds, per bucket, the last sampled trace that landed
	// there — allocated lazily on the first ObserveExemplar, so plain
	// histograms pay nothing.
	exemplars atomic.Pointer[[]atomic.Pointer[exemplar]]
}

// exemplar links a histogram bucket to one concrete trace.
type exemplar struct {
	TraceID uint64
	Value   float64
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and remembers traceID as the
// bucket's exemplar, linking the latency distribution to a concrete
// trace (surfaced on /debug/vars and as OpenMetrics-style exemplars
// on /debug/metrics). Called on the sampled-trace path only; plain
// observations stay on Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == 0 {
		return
	}
	exs := h.exemplars.Load()
	if exs == nil {
		fresh := make([]atomic.Pointer[exemplar], len(h.counts))
		if !h.exemplars.CompareAndSwap(nil, &fresh) {
			exs = h.exemplars.Load()
		} else {
			exs = &fresh
		}
	}
	i := sort.SearchFloat64s(h.bounds, v)
	(*exs)[i].Store(&exemplar{TraceID: traceID, Value: v})
}

// bucketExemplar returns bucket i's exemplar, if any.
func (h *Histogram) bucketExemplar(i int) *exemplar {
	exs := h.exemplars.Load()
	if exs == nil {
		return nil
	}
	return (*exs)[i].Load()
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, interpolating linearly inside the selected bucket. The
// overflow bucket reports its lower bound. Returns 0 for nil or empty
// histograms.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank {
			if i == len(h.bounds) { // overflow bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous. It panics on a non-positive
// start, a factor <= 1, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// TimeBuckets is the default bucket layout for timing histograms:
// 100 ns to ~107 s in factor-2 steps, covering everything from the
// paper's 6 µs T_C to multi-second distributed evaluations.
func TimeBuckets() []float64 { return ExpBuckets(1e-7, 2, 31) }

// Registry is a named collection of instruments. Lookups
// (Counter/Gauge/Histogram) register on first use and are
// mutex-guarded; the instruments themselves are lock-free. All methods
// are safe on a nil receiver, returning nil instruments.
type Registry struct {
	mu      sync.Mutex
	names   []string // registration order, for deterministic export
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

func lookup[T any](r *Registry, name string, mk func() *T) *T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(*T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as %T, was %T", name, mk(), m))
		}
		return t
	}
	t := mk()
	r.metrics[name] = t
	r.names = append(r.names, name)
	return t
}

// Counter returns the named counter, registering it on first use. It
// panics if the name is already registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, registering it on first use
// with the given bucket bounds (nil means TimeBuckets). Bounds are
// fixed at registration; later calls reuse the existing buckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return lookup(r, name, func() *Histogram {
		if bounds == nil {
			bounds = TimeBuckets()
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
		}
		return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	})
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Mean    float64      `json:"mean"`
	P50     float64      `json:"p50"`
	P99     float64      `json:"p99"`
	Max     float64      `json:"max_bound"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// BucketSnap is one non-empty histogram bucket: the upper bound (its
// "less than or equal" edge; +Inf for the overflow bucket), count,
// and — when a sampled trace landed there — the exemplar trace id
// linking the bucket to a concrete trace.
type BucketSnap struct {
	LE       float64 `json:"le"`
	N        uint64  `json:"n"`
	Exemplar string  `json:"exemplar,omitempty"`
}

// MarshalJSON renders the overflow bucket's +Inf bound as the string
// "+Inf" (JSON numbers cannot express infinity).
func (b BucketSnap) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.LE, 1) {
		return json.Marshal(struct {
			LE       string `json:"le"`
			N        uint64 `json:"n"`
			Exemplar string `json:"exemplar,omitempty"`
		}{"+Inf", b.N, b.Exemplar})
	}
	type plain BucketSnap
	return json.Marshal(plain(b))
}

// Snapshot returns every registered metric keyed by name, in a form
// that marshals directly to the /debug/vars JSON: counters as uint64,
// gauges as float64, histograms as HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names {
		switch m := r.metrics[name].(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case *Histogram:
			hs := HistogramSnapshot{
				Count: m.Count(),
				Sum:   m.Sum(),
				Mean:  m.Mean(),
				P50:   m.Quantile(0.5),
				P99:   m.Quantile(0.99),
				Max:   m.bounds[len(m.bounds)-1],
			}
			for i := range m.counts {
				n := m.counts[i].Load()
				if n == 0 {
					continue
				}
				le := math.Inf(1)
				if i < len(m.bounds) {
					le = m.bounds[i]
				}
				b := BucketSnap{LE: le, N: n}
				if ex := m.bucketExemplar(i); ex != nil {
					b.Exemplar = fmt.Sprintf("%016x", ex.TraceID)
				}
				hs.Buckets = append(hs.Buckets, b)
			}
			out[name] = hs
		}
	}
	return out
}

// WriteJSON writes the Snapshot as indented JSON with keys in sorted
// order (encoding/json sorts map keys), the `-metrics-out` file
// format and the /debug/vars response body.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
