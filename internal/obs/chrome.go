package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export of trace forests, the package's one Chrome
// exporter. A forest renders cross-process: each island's master is
// one pid, its worker fleet a second pid with one thread per worker,
// and flow events ("s"/"f") draw the grant → compute → result arrows
// across them — plus emigrant → migrant arrows between islands in a
// merged export.

// WriteChromeForests exports several forests — typically one per
// island — into one Chrome trace. Forest i's master is pid 2i+1, its
// workers pid 2i+2. Forest i must be island i's: a migrant span names
// its source island and epoch, so island i's emigrant of epoch e and
// the migrant it became on the ring successor share the flow id
// migrateFlowID(i, e) and draw one arrow between the two forests.
func WriteChromeForests(w io.Writer, labels []string, forests []Forest) error {
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
		return enc.Encode(e)
	}
	for i, f := range forests {
		label := fmt.Sprintf("island %d", i)
		if i < len(labels) {
			label = labels[i]
		}
		if err := emitForest(emit, f, i, label); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// migrateFlowID names the flow arrow from island's emigrant of epoch
// to the migrant it becomes on the receiving island.
func migrateFlowID(island int, epoch uint64) string {
	return fmt.Sprintf("migrate.%d.%d", island, epoch)
}

func emitForest(emit func(chromeEvent) error, f Forest, island int, label string) error {
	masterPID := 2*island + 1
	workerPID := masterPID + 1
	meta := []chromeEvent{
		{Name: "process_name", Phase: "M", PID: masterPID,
			Args: map[string]any{"name": label + " master"}},
		{Name: "process_name", Phase: "M", PID: workerPID,
			Args: map[string]any{"name": label + " workers"}},
	}
	workers := map[int]bool{}
	for _, s := range f {
		if s.Name == "eval" {
			workers[s.Worker] = true
		}
	}
	tids := make([]int, 0, len(workers))
	for w := range workers {
		tids = append(tids, w)
	}
	sort.Ints(tids)
	for _, w := range tids {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Phase: "M", PID: workerPID, TID: w,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)},
		})
	}
	for _, e := range meta {
		if err := emit(e); err != nil {
			return err
		}
	}

	span := func(s *Span, pid, tid int, cat string) chromeEvent {
		start, dur := s.Start, s.End-s.Start
		if start < 0 { // wall-clock jitter can push a derived start past 0
			start = 0
		}
		if dur < 0 {
			dur = 0
		}
		ce := chromeEvent{
			Name: s.Name, TS: start * 1e6, PID: pid, TID: tid, Cat: cat,
			Args: map[string]any{
				"trace_id": fmt.Sprintf("%016x", s.TraceID),
				"item":     s.Item,
			},
		}
		if dur > 0 {
			ce.Phase, ce.Dur = "X", dur*1e6
		} else {
			ce.Phase, ce.Scope = "i", "t"
		}
		return ce
	}
	flow := func(phase, name, id string, ts float64, pid, tid int) chromeEvent {
		ce := chromeEvent{
			Name: name, Phase: phase, TS: ts * 1e6, PID: pid, TID: tid,
			Cat: "flow", ID: id,
		}
		if phase == "f" {
			ce.BindPoint = "e" // bind to the enclosing slice
		}
		return ce
	}

	for _, root := range f {
		switch root.Name {
		case "migrant":
			ce := span(root, masterPID, 0, "migration")
			ce.Args["source"] = root.Worker
			if err := emit(ce); err != nil {
				return err
			}
			err := emit(flow("f", "migrate", migrateFlowID(root.Worker, root.Item),
				root.Start, masterPID, 0))
			if err != nil {
				return err
			}
			continue
		case "emigrant":
			if err := emit(span(root, masterPID, 0, "migration")); err != nil {
				return err
			}
			err := emit(flow("s", "migrate", migrateFlowID(island, root.Item),
				root.Start, masterPID, 0))
			if err != nil {
				return err
			}
			continue
		}

		// Evaluation tree: the root and tf live on the worker's
		// thread, the master-side terms on the master pid, with grant
		// and result flow arrows tying them together.
		if err := emit(span(root, workerPID, root.Worker, "eval")); err != nil {
			return err
		}
		var tf *Span
		for _, ch := range root.Children {
			pid, tid := masterPID, 0
			if ch.Name == "tf" {
				pid, tid, tf = workerPID, root.Worker, ch
			}
			if err := emit(span(ch, pid, tid, "eval")); err != nil {
				return err
			}
		}
		if tf != nil {
			id := fmt.Sprintf("%016x.%x", root.TraceID, root.Item)
			tfStart, tfEnd := tf.Start, tf.End
			if tfStart < 0 {
				tfStart = 0
			}
			if tfEnd < 0 {
				tfEnd = 0
			}
			for _, e := range []chromeEvent{
				flow("s", "grant", id+".g", root.Start, masterPID, 0),
				flow("f", "grant", id+".g", tfStart, workerPID, root.Worker),
				flow("s", "result", id+".r", tfEnd, workerPID, root.Worker),
				flow("f", "result", id+".r", root.End, masterPID, 0),
			} {
				if err := emit(e); err != nil {
					return err
				}
			}
		}
	}
	return nil
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
// captured mid-flight); Perfetto renders them as unterminated slices. It is the
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
