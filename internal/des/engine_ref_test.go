package des

import (
	"testing"
)

// refEngine is the event queue as it was before the heap held
// pointer-free entries — a min-heap of *refEvent with the index
// back-pointer and generation kept in the event — verbatim apart from
// the ref prefix and without processes or run bounds. FuzzEngineOrder
// holds Engine's pop order to it.
type refEvent struct {
	at  Time
	seq uint64 // FIFO tie-break
	id  int
	idx int // position in refEngine.events
	gen uint64
}

func (a *refEvent) before(b *refEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

type refEngine struct {
	now    Time
	events []*refEvent // binary min-heap on (at, seq)
	free   []*refEvent
	seq    uint64
}

type refHandle struct {
	eng *refEngine
	ev  *refEvent
	gen uint64
}

func (h refHandle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.eng.remove(h.ev.idx)
		h.eng.recycle(h.ev)
	}
}

func (e *refEngine) Schedule(delay Time, id int) refHandle {
	ev := e.push(e.now + delay)
	ev.id = id
	return refHandle{e, ev, ev.gen}
}

func (e *refEngine) push(t Time) *refEvent {
	var ev *refEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(refEvent)
	}
	ev.at, ev.seq = t, e.seq
	e.seq++
	e.events = append(e.events, ev)
	e.siftUp(len(e.events)-1, ev)
	return ev
}

func (e *refEngine) siftUp(i int, ev *refEvent) {
	h := e.events
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

func (e *refEngine) remove(i int) {
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	if i == n {
		return
	}
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(last) {
			break
		}
		h[i] = h[child]
		h[i].idx = i
		i = child
	}
	e.siftUp(i, last)
}

func (e *refEngine) recycle(ev *refEvent) {
	ev.id = 0
	ev.gen++
	e.free = append(e.free, ev)
}

// Step pops the earliest event and returns its id, or false if none.
func (e *refEngine) Step() (int, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	ev := e.events[0]
	e.remove(0)
	e.now = ev.at
	id := ev.id
	e.recycle(ev)
	return id, true
}

// engineOrderDelays are the delays a fuzzed schedule draws from: few
// and repeating, so equal timestamps (the seq tie-break) are common.
var engineOrderDelays = []Time{0, 0, 0.5, 1, 1, 2.25, 3, 7}

// checkEngineOrder replays one op string on Engine and refEngine and
// fails at the first pop that differs. Each byte is one op: schedule
// (a delay), cancel (any handle ever issued, so stale ones too), or
// step; the queues are drained at the end.
func checkEngineOrder(t *testing.T, ops []byte) {
	t.Helper()
	e, ref := New(), &refEngine{}
	var popped int
	var hs []Handle
	var refHs []refHandle
	step := func() bool {
		popped = 0
		ran := e.Step()
		want, ok := ref.Step()
		if ran != ok || popped != want || e.Now() != ref.now {
			t.Fatalf("pop: engine (%v, id %d, now %v), reference (%v, id %d, now %v)",
				ran, popped, e.Now(), ok, want, ref.now)
		}
		return ran
	}
	for _, op := range ops {
		switch {
		case op < 128:
			id := len(hs) + 1
			d := engineOrderDelays[int(op)%len(engineOrderDelays)]
			hs = append(hs, e.Schedule(d, func() { popped = id }))
			refHs = append(refHs, ref.Schedule(d, id))
		case op < 224:
			if len(hs) > 0 {
				i := int(op) % len(hs)
				hs[i].Cancel()
				refHs[i].Cancel()
			}
		default:
			step()
		}
		if len(e.events) != len(ref.events) {
			t.Fatalf("queue length %d, reference %d", len(e.events), len(ref.events))
		}
	}
	for step() {
	}
}

// FuzzEngineOrder: random schedule/cancel/equal-time sequences pop in
// the reference heap's order, with the same clock.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 130, 4, 5, 255, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 200, 201, 202, 255, 255, 255})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 224, 140, 141, 142, 224, 7, 7})
	f.Fuzz(checkEngineOrder)
}

// TestEngineOrderMatchesReference runs the oracle on seeded random op
// strings of several lengths, so a plain go test covers it too.
func TestEngineOrderMatchesReference(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 1+trial*3)
		for i := range ops {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ops[i] = byte(x)
		}
		checkEngineOrder(t, ops)
	}
}
