// Package cluster models a message-passing machine — the stand-in for
// TACC Ranger + OpenMPI — on top of the discrete-event engine in
// internal/des. A Cluster is a set of ranked nodes exchanging tagged
// messages; each node runs one process and accounts its busy time so
// per-node utilization (master saturation, worker idle fractions) can
// be reported after a run.
//
// Fidelity note: the paper measured communication as a round-trip cost
// 2·T_C that *occupies the master* (its simulation model holds the
// master for T_C + T_A + T_C per request, and Eq. 3's saturation bound
// is T_F/(2·T_C + T_A)). Accordingly the drivers in internal/parallel
// charge T_C as busy time on the communicating node, and Cluster's
// message transit latency defaults to zero. A nonzero Transit
// distribution is available to model pure wire delay in addition.
package cluster

import (
	"fmt"

	"borgmoea/internal/des"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// Message is one point-to-point datagram between nodes. Messages
// travel by value: Recv and TryRecv return a copy the caller owns. In
// flight the cluster keeps each one in a recycled *Message, which the
// drop hook sees for the duration of its call only.
type Message struct {
	From, To int
	Tag      int
	Payload  any
	SentAt   des.Time
	ArriveAt des.Time
}

// Config configures a virtual cluster.
type Config struct {
	// Nodes is the number of nodes (P in the paper). Must be >= 1.
	Nodes int
	// Transit is the wire latency added to every message, sampled per
	// message. Nil means instantaneous delivery (the paper's model:
	// communication cost is charged as sender/receiver busy time by
	// the drivers instead).
	Transit stats.Distribution
	// Seed seeds the cluster's internal randomness (transit sampling).
	Seed uint64
}

// Cluster is a virtual message-passing machine bound to a DES engine.
type Cluster struct {
	eng     *des.Engine
	nodes   []*Node
	transit stats.Distribution
	rng     *rng.Source

	messagesLost uint64
	dropFn       func(*Message) bool
	deliverFn    func(any)  // deliver, built once for des.ScheduleCall
	free         []*Message // in-flight carriers delivery has returned
}

// New builds a cluster on the engine. It panics if cfg.Nodes < 1.
func New(eng *des.Engine, cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	c := &Cluster{
		eng:     eng,
		transit: cfg.Transit,
		rng:     rng.New(cfg.Seed ^ 0x636c7573746572), // "cluster"
	}
	c.deliverFn = func(msg any) { c.deliver(msg.(*Message)) }
	c.nodes = make([]*Node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = &Node{c: c, rank: i, label: "master"}
		if i > 0 {
			c.nodes[i].label = fmt.Sprintf("worker%d", i)
		}
	}
	return c
}

// Engine returns the underlying DES engine.
func (c *Cluster) Engine() *des.Engine { return c.eng }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the node with the given rank.
func (c *Cluster) Node(rank int) *Node {
	return c.nodes[rank]
}

// MessagesLost returns the number of messages discarded by the drop
// hook or by delivery to a failed node.
func (c *Cluster) MessagesLost() uint64 { return c.messagesLost }

// SetDropFn installs a per-message loss hook consulted at delivery
// time: returning true discards the message. Used by internal/fault to
// model lossy links. A nil fn disables loss. The hook must not keep
// the *Message: the cluster reuses it once the call returns.
func (c *Cluster) SetDropFn(fn func(*Message) bool) { c.dropFn = fn }

// Node is one machine in the cluster. At most one receiver — a process
// in Recv/RecvTimeout or a Serve callback — should use a node at a time
// (each node runs a single rank, as in the paper's
// one-solution-per-worker setup).
type Node struct {
	c     *Cluster
	rank  int
	label string // trace actor name

	inbox     []Message // delivered, unreceived messages, from inboxHead on
	inboxHead int
	waiting   *des.Process // parked in recv
	timedOut  bool         // its RecvTimeout deadline fired first
	serve     func()       // callback server, see Serve
	idle      bool         // the server awaits a delivery
	busyKind  string       // open BusyFor interval
	busyThen  func()
	failed    bool
	epoch     uint64
	suspend   des.Time

	busyIntegral float64
	busySince    des.Time
	busyDepth    int
}

// Rank returns the node's rank (0 is the master by convention).
func (n *Node) Rank() int { return n.rank }

// Failed reports whether the node is currently failed.
func (n *Node) Failed() bool { return n.failed }

// Fail marks the node dead: its inbox is discarded (in-flight state is
// lost with the crash) and subsequent messages to it are dropped until
// Recover. The node's process is not interrupted; drivers model lost
// work by comparing Epoch before and after an evaluation — a crash
// during the interval bumps the epoch, so the stale result is never
// sent (see internal/parallel).
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.failed = true
	n.epoch++
	n.c.messagesLost += uint64(n.InboxLen())
	clear(n.inbox)
	n.inbox, n.inboxHead = n.inbox[:0], 0
	n.c.eng.Emit("fail", n.label, "")
}

// Recover marks a failed node alive again. Work it held before the
// failure stays lost (the epoch advanced); it simply becomes able to
// receive messages.
func (n *Node) Recover() {
	if !n.failed {
		return
	}
	n.failed = false
	n.c.eng.Emit("recover", n.label, "")
}

// Epoch returns the node's incarnation counter: the number of failures
// it has suffered. Processes snapshot it before starting work and
// discard results if it changed, modeling work lost in a crash.
func (n *Node) Epoch() uint64 { return n.epoch }

// Suspend hangs the node until the given absolute virtual time:
// messages still arrive and queue, but a well-behaved node process
// defers responses past the suspension (via SuspendedUntil). Repeated
// suspensions extend, never shorten, the hang.
func (n *Node) Suspend(until des.Time) {
	if until > n.suspend {
		n.suspend = until
		if n.c.eng.Tracing() {
			n.c.eng.Emit("hang", n.label, fmt.Sprintf("until=%g", until))
		}
	}
}

// SuspendedUntil returns the end of the current hang (0, or a past
// time, when the node is responsive).
func (n *Node) SuspendedUntil() des.Time { return n.suspend }

// Send transmits a message from this node to rank dst. Delivery is
// after the cluster's transit latency (zero when unset). Sending does
// not consume the sender's time by itself; callers account the T_C
// communication cost with HoldBusy, following the paper's model.
func (n *Node) Send(dst, tag int, payload any) {
	if dst < 0 || dst >= len(n.c.nodes) {
		panic(fmt.Sprintf("cluster: Send to invalid rank %d", dst))
	}
	if n.failed {
		// A dead node cannot transmit; the message vanishes.
		n.c.messagesLost++
		if n.c.eng.Tracing() {
			n.c.eng.Emit("drop", n.label, fmt.Sprintf("dead sender, to=%d tag=%d", dst, tag))
		}
		return
	}
	lat := 0.0
	if n.c.transit != nil {
		lat = n.c.transit.Sample(n.c.rng)
		if lat < 0 {
			lat = 0
		}
	}
	msg := n.c.carrier()
	*msg = Message{
		From:    n.rank,
		To:      dst,
		Tag:     tag,
		Payload: payload,
		SentAt:  n.c.eng.Now(),
	}
	if n.c.eng.Tracing() {
		n.c.eng.Emit("send", n.label, fmt.Sprintf("to=%d tag=%d", dst, tag))
	}
	n.c.eng.ScheduleCall(lat, n.c.deliverFn, msg)
}

// carrier returns a recycled (or new) in-flight message.
func (c *Cluster) carrier() *Message {
	if n := len(c.free); n > 0 {
		msg := c.free[n-1]
		c.free = c.free[:n-1]
		return msg
	}
	return new(Message)
}

// deliver lands an in-flight message — in the destination's inbox, as
// a value, or lost — and recycles its carrier.
func (c *Cluster) deliver(msg *Message) {
	c.land(msg)
	*msg = Message{}
	c.free = append(c.free, msg)
}

// land puts msg in its destination's inbox, waking the receiver, or
// counts it lost to a failed node or the drop hook.
func (c *Cluster) land(msg *Message) {
	dst := c.nodes[msg.To]
	if dst.failed {
		c.messagesLost++
		if c.eng.Tracing() {
			c.eng.Emit("drop", dst.label, fmt.Sprintf("from=%d tag=%d", msg.From, msg.Tag))
		}
		return
	}
	if c.dropFn != nil && c.dropFn(msg) {
		c.messagesLost++
		if c.eng.Tracing() {
			c.eng.Emit("loss", dst.label, fmt.Sprintf("from=%d tag=%d", msg.From, msg.Tag))
		}
		return
	}
	msg.ArriveAt = c.eng.Now()
	dst.inbox = append(dst.inbox, *msg)
	if p := dst.waiting; p != nil {
		dst.waiting = nil
		p.WakeLater(0)
	} else if dst.idle {
		dst.idle = false
		c.eng.Schedule(0, dst.serve)
	}
}

// Recv blocks the calling process until a message is available and
// returns it (FIFO by arrival).
func (n *Node) Recv(p *des.Process) Message {
	msg, ok := n.recv(p, 0, false)
	if !ok {
		panic("cluster: Recv returned without message") // unreachable
	}
	return msg
}

// RecvTimeout is Recv with a deadline: it returns (Message{}, false)
// if no message arrives within timeout units of virtual time.
func (n *Node) RecvTimeout(p *des.Process, timeout des.Time) (Message, bool) {
	return n.recv(p, timeout, true)
}

func (n *Node) recv(p *des.Process, timeout des.Time, hasTimeout bool) (Message, bool) {
	if n.InboxLen() == 0 {
		n.waiting, n.timedOut = p, false
		var h des.Handle
		if hasTimeout {
			h = n.c.eng.ScheduleCall(timeout, recvDeadline, n)
		}
		p.Park()
		if n.timedOut {
			return Message{}, false
		}
		h.Cancel()
	}
	return n.pop(), true
}

// recvDeadline is the RecvTimeout expiry event; a delivery that ran
// first at the same instant has cleared waiting and wins.
func recvDeadline(node any) {
	n := node.(*Node)
	if p := n.waiting; p != nil {
		n.waiting = nil
		n.timedOut = true
		p.WakeLater(0)
	}
}

// pop takes the oldest message out of a non-empty inbox.
func (n *Node) pop() Message {
	msg := n.inbox[n.inboxHead]
	n.inbox[n.inboxHead] = Message{} // drop the payload reference
	n.inboxHead++
	if 2*n.inboxHead >= len(n.inbox) {
		// At least half the slice is spent: move the live tail down.
		// That is at most one move per pop, amortised, and it keeps a
		// queue that never drains as long as its backlog.
		live := copy(n.inbox, n.inbox[n.inboxHead:])
		clear(n.inbox[live:])
		n.inbox, n.inboxHead = n.inbox[:live], 0
	}
	if n.c.eng.Tracing() {
		n.c.eng.Emit("recv", n.label, fmt.Sprintf("from=%d tag=%d", msg.From, msg.Tag))
	}
	return msg
}

// Serve makes the node a callback server, the goroutine-free
// counterpart of a process looping on Recv: a message delivered while
// the server is idle schedules fn as a zero-delay event — the event a
// parked receiver's wake would have been, so ties break the same way.
// fn takes messages with TryRecv; the server starts idle and is idle
// again once TryRecv has found the inbox empty. fn must not block:
// time passes through BusyFor. Serve(nil) stops serving.
func (n *Node) Serve(fn func()) { n.serve, n.idle = fn, fn != nil }

// TryRecv returns the oldest delivered message, or false if none.
func (n *Node) TryRecv() (Message, bool) {
	if n.InboxLen() == 0 {
		n.idle = n.serve != nil
		return Message{}, false
	}
	return n.pop(), true
}

// BusyFor is HoldBusy for callbacks: the next d is busy time of the
// given kind, and then runs when it ends. One interval at a time.
func (n *Node) BusyFor(d des.Time, kind string, then func()) {
	n.BeginBusy()
	if n.c.eng.Tracing() {
		n.c.eng.Emit(kind+".start", n.label, "")
	}
	n.busyKind, n.busyThen = kind, then
	n.c.eng.ScheduleCall(d, busyDone, n)
}

func busyDone(node any) {
	n := node.(*Node)
	if n.c.eng.Tracing() {
		n.c.eng.Emit(n.busyKind+".end", n.label, "")
	}
	n.EndBusy()
	then := n.busyThen
	n.busyThen = nil
	then()
}

// InboxLen returns the number of delivered-but-unreceived messages.
func (n *Node) InboxLen() int { return len(n.inbox) - n.inboxHead }

// HoldBusy advances the process by d while accounting the interval as
// busy time on this node, tagged with kind for the trace ("eval",
// "comm", "algo", ...).
func (n *Node) HoldBusy(p *des.Process, d des.Time, kind string) {
	n.BeginBusy()
	if n.c.eng.Tracing() {
		n.c.eng.Emit(kind+".start", n.label, "")
	}
	p.Hold(d)
	if n.c.eng.Tracing() {
		n.c.eng.Emit(kind+".end", n.label, "")
	}
	n.EndBusy()
}

// BeginBusy marks the start of a busy interval. Busy intervals may
// nest; the node is busy while any interval is open.
func (n *Node) BeginBusy() {
	if n.busyDepth == 0 {
		n.busySince = n.c.eng.Now()
	}
	n.busyDepth++
}

// EndBusy closes the innermost busy interval. It panics if the node is
// not busy.
func (n *Node) EndBusy() {
	if n.busyDepth <= 0 {
		panic("cluster: EndBusy without BeginBusy")
	}
	n.busyDepth--
	if n.busyDepth == 0 {
		n.busyIntegral += n.c.eng.Now() - n.busySince
	}
}

// BusyTime returns total accumulated busy time, including any interval
// still open.
func (n *Node) BusyTime() des.Time {
	t := n.busyIntegral
	if n.busyDepth > 0 {
		t += n.c.eng.Now() - n.busySince
	}
	return t
}
