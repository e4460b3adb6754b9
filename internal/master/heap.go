package master

// lease is one outstanding evaluation: the dispatched work item, the
// worker it was granted to, and the deadline after which the master
// presumes the work lost and resubmits a clone. done marks settled
// leases (result accepted, or expired and reissued). seq breaks
// deadline ties in grant order, keeping expiry processing
// deterministic. idx is the lease's position on the deadline heap, -1
// when it is not on it, so settling a lease removes it in O(log n).
type lease struct {
	item     *Item
	worker   int
	deadline float64
	seq      uint64
	idx      int
	done     bool
}

// leaseHeap is an indexed binary min-heap of live leases ordered by
// (deadline, seq). It replaces the FIFO scan the drivers used when the
// timeout was a single constant: the heap stays O(log n) per
// grant/settle/expiry even if per-worker or adaptive timeouts make
// deadlines non-monotonic, and peek is O(1). It holds live leases
// only: release removes a lease the moment it settles, so the heap
// never outgrows the outstanding set and a settled lease can be pooled
// at once.
type leaseHeap struct {
	q []*lease
}

func leaseLess(a, b *lease) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

func (h *leaseHeap) swap(i, j int) {
	h.q[i], h.q[j] = h.q[j], h.q[i]
	h.q[i].idx, h.q[j].idx = i, j
}

func (h *leaseHeap) push(l *lease) {
	l.idx = len(h.q)
	h.q = append(h.q, l)
	h.siftUp(l.idx)
}

// pop removes and returns the lease with the earliest deadline.
func (h *leaseHeap) pop() *lease {
	top := h.q[0]
	h.remove(top)
	return top
}

// remove takes l off the heap; it must be on it.
func (h *leaseHeap) remove(l *lease) {
	i, last := l.idx, len(h.q)-1
	h.swap(i, last)
	h.q[last] = nil
	h.q = h.q[:last]
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
	l.idx = -1
}

func (h *leaseHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !leaseLess(h.q[i], h.q[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *leaseHeap) siftDown(i int) {
	n := len(h.q)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && leaseLess(h.q[l], h.q[min]) {
			min = l
		}
		if r < n && leaseLess(h.q[r], h.q[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// peek returns the live lease with the earliest deadline.
func (h *leaseHeap) peek() (*lease, bool) {
	if len(h.q) == 0 {
		return nil, false
	}
	return h.q[0], true
}

func (h *leaseHeap) len() int { return len(h.q) }
