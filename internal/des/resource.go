package des

import "fmt"

// Resource is a SimPy-style server with fixed capacity and a FIFO
// request queue. In the paper's simulation model the master node is a
// Resource with capacity 1: workers "request" the master, "hold" it
// for 2*T_C + T_A, and "release" it. Contention for this resource is
// exactly the effect the analytical model cannot capture.
//
// Resource integrates busy-server time and queue length over time so
// utilization and mean queue length can be reported after a run.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	queue    []*Process

	// time-weighted statistics
	lastChange   Time
	busyIntegral float64 // ∫ inUse dt
	queueIntgrl  float64 // ∫ len(queue) dt
	grants       uint64
	maxQueue     int
}

// NewResource returns a resource with the given capacity (number of
// simultaneous holders). It panics if capacity < 1.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("des: NewResource requires capacity >= 1")
	}
	return &Resource{eng: e, name: name, capacity: capacity, lastChange: e.now}
}

// accumulate folds the elapsed interval into the time-weighted stats.
func (r *Resource) accumulate() {
	dt := r.eng.now - r.lastChange
	if dt > 0 {
		r.busyIntegral += float64(r.inUse) * dt
		r.queueIntgrl += float64(len(r.queue)) * dt
		r.lastChange = r.eng.now
	} else {
		r.lastChange = r.eng.now
	}
}

// Acquire blocks the calling process until a unit of the resource is
// available, honoring FIFO order among waiters.
func (r *Resource) Acquire(p *Process) {
	r.accumulate()
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		r.grants++
		r.eng.Emit("acquire", p.Name(), r.name)
		return
	}
	r.queue = append(r.queue, p)
	if len(r.queue) > r.maxQueue {
		r.maxQueue = len(r.queue)
	}
	r.eng.Emit("enqueue", p.Name(), r.name)
	p.Park()
	// We were woken by Release, which transferred the unit to us
	// (inUse stays constant across the hand-off).
	r.eng.Emit("acquire", p.Name(), r.name)
}

// Release returns one unit of the resource, waking the next FIFO
// waiter if any. It panics if nothing is held.
func (r *Resource) Release(p *Process) {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("des: Release of idle resource %q", r.name))
	}
	r.accumulate()
	r.eng.Emit("release", p.Name(), r.name)
	if len(r.queue) > 0 {
		next := r.queue[0]
		copy(r.queue, r.queue[1:])
		r.queue = r.queue[:len(r.queue)-1]
		r.grants++
		// Hand the unit directly to the next waiter at this instant.
		next.WakeLater(0)
		return
	}
	r.inUse--
}

// ResourceStats summarizes a resource's load over an interval.
type ResourceStats struct {
	Name          string
	Grants        uint64  // completed acquisitions
	Utilization   float64 // mean fraction of capacity in use
	MeanQueueLen  float64 // time-averaged waiter count
	MaxQueueLen   int
	ObservedSpan  Time // duration the statistics cover
	BusyTimeTotal Time // ∫ inUse dt
}

// Stats returns load statistics covering [start of sim, Now].
func (r *Resource) Stats() ResourceStats {
	r.accumulate()
	span := r.eng.now
	st := ResourceStats{
		Name:          r.name,
		Grants:        r.grants,
		MaxQueueLen:   r.maxQueue,
		ObservedSpan:  span,
		BusyTimeTotal: r.busyIntegral,
	}
	if span > 0 {
		st.Utilization = r.busyIntegral / (float64(r.capacity) * span)
		st.MeanQueueLen = r.queueIntgrl / span
	}
	return st
}

func (s ResourceStats) String() string {
	return fmt.Sprintf("%s: util=%.3f meanQ=%.3f maxQ=%d grants=%d",
		s.Name, s.Utilization, s.MeanQueueLen, s.MaxQueueLen, s.Grants)
}
