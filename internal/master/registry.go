package master

// WorkerState is one worker's lifecycle state as the master sees it.
type WorkerState int8

const (
	// StateIdle: registered, no outstanding lease, queued for work.
	StateIdle WorkerState = iota
	// StateBusy: holds a live lease.
	StateBusy
	// StateSuspect: a lease expired on it; presumed dead until it shows
	// a sign of life (a result, or a hello after recovery). Suspects
	// still receive stop messages and bounded last-resort probes.
	StateSuspect
	// StateGone: the transport declared it dead for good (connection
	// error). Terminal until the same identity rejoins.
	StateGone
)

func (s WorkerState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StateSuspect:
		return "suspect"
	case StateGone:
		return "gone"
	}
	return "invalid"
}

// workerInfo is the registry's record for one worker.
type workerInfo struct {
	id     int
	state  WorkerState
	probes int
	lease  *lease // live lease, nil otherwise (cleared on release)
}

// Registry tracks worker identities, lifecycle states and the idle
// queue — the dispatch primitives shared by every master: the
// asynchronous Core embeds one, and the synchronous barrier master and
// the per-island masters use it directly. It is deterministic: Known
// iterates in join order and the idle queue is FIFO.
type Registry struct {
	byID     map[int]*workerInfo
	order    []int
	idleQ    []int // FIFO from idleHead on
	idleHead int
	live     int
	peak     int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[int]*workerInfo)}
}

// lookup returns the record for id, or nil.
func (r *Registry) lookup(id int) *workerInfo { return r.byID[id] }

// join registers a new worker — or revives a gone one — born busy (the
// caller decides whether it seeds work or marks it idle; StateIdle is
// the zero state, so it cannot be the initial one without queueing).
func (r *Registry) join(id int) *workerInfo {
	w := r.byID[id]
	if w == nil {
		w = &workerInfo{id: id}
		r.byID[id] = w
		r.order = append(r.order, id)
	}
	w.state = StateBusy
	w.probes = 0
	w.lease = nil
	r.live++
	if r.live > r.peak {
		r.peak = r.live
	}
	return w
}

// Join registers a worker (exported form for the barrier and island
// masters). Re-joining an already-live worker is a no-op.
func (r *Registry) Join(id int) {
	if w := r.byID[id]; w != nil && w.state != StateGone {
		return
	}
	r.join(id)
}

// markGone records a terminal death. Reports whether the worker was
// alive (so the caller counts the death exactly once).
func (r *Registry) markGone(id int) bool {
	w := r.byID[id]
	if w == nil || w.state == StateGone {
		return false
	}
	w.state = StateGone
	r.live--
	return true
}

// MarkIdle resets the worker's probe budget and queues it for dispatch
// unless it is gone or already idle. Resetting probes even when the
// state does not change is deliberate: any sign of life refills the
// last-resort probe budget.
func (r *Registry) MarkIdle(id int) {
	w := r.byID[id]
	if w == nil || w.state == StateGone {
		return
	}
	w.probes = 0
	if w.state == StateIdle {
		return
	}
	w.state = StateIdle
	r.idleQ = append(r.idleQ, id)
}

// MarkSuspect presumes a worker dead (missed barrier, expired lease)
// until it shows a sign of life.
func (r *Registry) MarkSuspect(id int) {
	if w := r.byID[id]; w != nil && w.state != StateGone {
		w.state = StateSuspect
	}
}

// State returns the worker's lifecycle state (StateGone for unknown).
func (r *Registry) State(id int) WorkerState {
	if w := r.byID[id]; w != nil {
		return w.state
	}
	return StateGone
}

// popIdle pops the next genuinely idle worker, discarding stale queue
// entries (workers whose state moved on since they were queued).
func (r *Registry) popIdle() (*workerInfo, bool) {
	for r.idleHead < len(r.idleQ) {
		id := r.idleQ[r.idleHead]
		r.idleHead++
		if 2*r.idleHead >= len(r.idleQ) {
			// At least half the slice is spent: move the live tail down,
			// at most one move per pop amortised. Re-slicing the front
			// instead would strand capacity, and MarkIdle's append would
			// reallocate every few evaluations.
			live := copy(r.idleQ, r.idleQ[r.idleHead:])
			r.idleQ, r.idleHead = r.idleQ[:live], 0
		}
		w := r.byID[id]
		if w != nil && w.state == StateIdle {
			return w, true
		}
	}
	return nil, false
}

// Known returns every registered worker id in join order. The slice is
// the registry's own; callers must not mutate it.
func (r *Registry) Known() []int { return r.order }

// Live returns the number of workers not gone.
func (r *Registry) Live() int { return r.live }

// Peak returns the maximum concurrent live count seen.
func (r *Registry) Peak() int { return r.peak }
