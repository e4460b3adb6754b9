package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Event is one entry in a run's protocol journal. TS is seconds since
// the start of the run on whichever clock drives it — the DES virtual
// clock for the virtual-time drivers, the wall clock for the
// distributed ones. Span events carry a Dur; point events (sends,
// receives, joins, expiries) leave it zero. Kind follows the DES trace
// vocabulary: "send", "recv", "eval.start"/"eval.end" (paired spans),
// "eval" (complete span with Dur), "lease.expire", "join", "dead", …
type Event struct {
	TS     float64 `json:"ts"`
	Dur    float64 `json:"dur,omitempty"`
	Kind   string  `json:"kind"`
	Actor  string  `json:"actor"`
	Detail string  `json:"detail,omitempty"`
}

// Recorder collects protocol events, concurrency-safe, for JSONL
// journaling and Chrome trace export. All methods no-op on a nil
// receiver, so drivers record unconditionally. A retention limit
// bounds memory on long runs; events past it are counted, not kept.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped uint64
}

// NewRecorder returns a Recorder retaining up to limit events
// (0 or negative = DefaultEventLimit).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultEventLimit
	}
	return &Recorder{limit: limit}
}

// DefaultEventLimit bounds retained events per run. At roughly 10
// protocol events per evaluation this covers the paper's N=100,000
// runs with headroom.
const DefaultEventLimit = 2_000_000

// Record appends one event. No-op on a nil recorder; past the
// retention limit events are dropped and counted.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.events) >= r.limit {
		r.dropped++
	} else {
		r.events = append(r.events, ev)
	}
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns the number of events lost to the retention limit.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the retained events in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// WriteJSONL writes the journal as one JSON object per line — the
// grep/jq-friendly raw form of the run.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTrace exports the journal in the Chrome trace_event JSON
// format, rendering the run as a per-actor timeline in
// chrome://tracing or Perfetto. The mapping: every actor becomes a
// named thread; "<kind>.start"/"<kind>.end" pairs become duration
// begin/end events; events with a Dur become complete ("X") events;
// everything else becomes an instant event. Timestamps are converted
// to microseconds (the format's unit), so one virtual second reads as
// one second on the tracing timeline.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()

	// Stable actor → tid assignment: master first, then the rest in
	// first-appearance order.
	tids := map[string]int{}
	order := []string{}
	for _, ev := range events {
		if _, ok := tids[ev.Actor]; !ok {
			tids[ev.Actor] = 0 // placeholder
			order = append(order, ev.Actor)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		mi, mj := order[i] == "master", order[j] == "master"
		if mi != mj {
			return mi
		}
		return false // otherwise keep first-appearance order
	})
	for i, actor := range order {
		tids[actor] = i
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		// json.Encoder appends a newline, which doubles as a row
		// separator inside the array.
		return enc.Encode(e)
	}

	const pid = 1
	for _, actor := range order {
		err := emit(chromeEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: tids[actor],
			Args: map[string]any{"name": actor},
		})
		if err != nil {
			return err
		}
	}
	for _, ev := range events {
		ce := chromeEvent{
			TS:  ev.TS * 1e6,
			PID: pid,
			TID: tids[ev.Actor],
			Cat: "protocol",
		}
		switch {
		case ev.Dur > 0:
			ce.Phase, ce.Name, ce.Dur, ce.Cat = "X", ev.Kind, ev.Dur*1e6, "busy"
		case strings.HasSuffix(ev.Kind, ".start"):
			ce.Phase, ce.Name, ce.Cat = "B", strings.TrimSuffix(ev.Kind, ".start"), "busy"
		case strings.HasSuffix(ev.Kind, ".end"):
			ce.Phase, ce.Name, ce.Cat = "E", strings.TrimSuffix(ev.Kind, ".end"), "busy"
		default:
			ce.Phase, ce.Name, ce.Scope = "i", ev.Kind, "t"
		}
		if ev.Detail != "" {
			ce.Args = map[string]any{"detail": ev.Detail}
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvent is one trace_event-format record. ID and BindPoint are
// only set on flow events ("s"/"t"/"f"), which the forest exporter
// uses to draw cross-process arrows.
type chromeEvent struct {
	Name      string         `json:"name"`
	Phase     string         `json:"ph"`
	TS        float64        `json:"ts"`
	Dur       float64        `json:"dur,omitempty"`
	PID       int            `json:"pid"`
	TID       int            `json:"tid"`
	Cat       string         `json:"cat,omitempty"`
	Scope     string         `json:"s,omitempty"`
	ID        string         `json:"id,omitempty"`
	BindPoint string         `json:"bp,omitempty"`
	Args      map[string]any `json:"args,omitempty"`
}

// ValidateChromeTrace checks data against the Chrome trace-event
// schema subset this package emits: a top-level object with a
// traceEvents array whose entries carry a name, a known phase, a
// non-negative timestamp, pid/tid, a non-negative dur on complete
// events — and whose E duration events each close an open B on their
// thread. Spans still open at the end of the trace are legal (a run
// captured mid-flight, or a journal truncated by its retention
// limit); Perfetto renders them as unterminated slices. It is the
// golden-test oracle for `-trace` output.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not a JSON object: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	depth := map[[2]int]int{} // (pid,tid) → open B events
	for i, raw := range doc.TraceEvents {
		var ev chromeEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("obs: traceEvents[%d]: %w", i, err)
		}
		switch ev.Phase {
		case "B", "E", "X", "i", "I", "M", "C":
		case "s", "t", "f": // flow events: cross-process arrows
			if ev.ID == "" {
				return fmt.Errorf("obs: traceEvents[%d]: flow event without id", i)
			}
		default:
			return fmt.Errorf("obs: traceEvents[%d]: unknown phase %q", i, ev.Phase)
		}
		if ev.Name == "" && ev.Phase != "E" {
			return fmt.Errorf("obs: traceEvents[%d]: missing name", i)
		}
		if ev.TS < 0 {
			return fmt.Errorf("obs: traceEvents[%d]: negative ts %v", i, ev.TS)
		}
		if ev.Phase == "X" && ev.Dur < 0 {
			return fmt.Errorf("obs: traceEvents[%d]: complete event with negative dur %v", i, ev.Dur)
		}
		key := [2]int{ev.PID, ev.TID}
		switch ev.Phase {
		case "B":
			depth[key]++
		case "E":
			depth[key]--
			if depth[key] < 0 {
				return fmt.Errorf("obs: traceEvents[%d]: E without matching B on pid=%d tid=%d", i, ev.PID, ev.TID)
			}
		}
	}
	return nil
}
