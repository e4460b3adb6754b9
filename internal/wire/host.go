package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"borgmoea/internal/master"
	"borgmoea/internal/problems"
)

// HostEventKind discriminates the three things a worker connection can
// tell the master.
type HostEventKind uint8

const (
	// HostJoin: Sess finished its handshake; Admit it.
	HostJoin HostEventKind = iota
	// HostResult: Sess answered a grant (Result is set).
	HostResult
	// HostDead: Sess's connection ended (Err says why). Always the last
	// event of a session, and always after its HostJoin.
	HostDead
)

// HostEvent is one input from the worker fleet to a master. Result
// points into its reader's decode scratch: it is valid only until the
// handler returns (Fill copies what the master keeps).
type HostEvent struct {
	Kind   HostEventKind
	Sess   *Session
	Result *Result
	Err    error
	// Wait is how long the reader waited for the loop lock, in seconds:
	// on a socket host, the queue wait of a result while the master
	// handled other events.
	Wait float64
}

// Session is one handshaken worker connection: which connection speaks
// for a worker id. Protocol state (leases, lifecycle) lives in master.Core.
type Session struct {
	ID   uint64
	conn *Conn
	gone bool // dropped or replaced; terminal. Guarded by the loop lock.
}

// Gone reports whether the session was dropped or replaced; a result
// its reader delivers afterwards is stale and must be ignored.
func (s *Session) Gone() bool { return s.gone }

// RemoteAddr reports the worker's address.
func (s *Session) RemoteAddr() net.Addr { return s.conn.RemoteAddr() }

// Host is the master side of the worker transport under the one socket
// master, federation.SocketMaster. It owns the accept loop, the
// off-loop handshake, a reader goroutine per connection, worker-id
// assignment, the id → Session table, the loop lock that serialises
// everything a master reacts to, and the teardown of every connection
// it accepted — and nothing else: master.Core wiring, metering and
// policy stay with the handler (DESIGN.md §10, "One master per
// transport").
//
// Each reader calls the handler itself, under the loop lock, for its
// session's join, every result and the final dead event; the rest of
// what a master reacts to (lease ticks, wall limits, API calls) enters
// through Do. So the master state is only ever touched under that one
// lock, and a result is handled before its reader reads the next frame.
//
// Reserve, Lookup and Do work on the zero Host; the rest needs Serve
// first. Admit, Drop, Lookup, Live, Grant and Stop must be called under
// the loop lock: from the handler or inside Do.
type Host struct {
	ln       net.Listener
	opt      Options
	welcome  Welcome
	nconstrs int // a single-problem session's constraint count
	handle   func(HostEvent)
	nextID   atomic.Uint64
	wg       sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]*Conn // every accepted connection and how far it got (see track)
	closed bool
	stop   bool // Close(true): also Stop a handshake that lands after Close

	// loop is the loop lock. halted (set by Close) ends delivery: no
	// handler call starts after it.
	loop   sync.Mutex
	halted bool
	byID   map[uint64]*Session // live sessions
	grant  Evaluate            // Grant's frame source; Send copies it out before returning
}

// Serve starts the host on ln and returns. Workers are welcomed to a
// session on problem or, when it is nil, to a MultiProblem session whose
// grants name their own. handle receives every session's events (see
// Host); it runs on the session's reader goroutine under the loop lock,
// and must not call Close. Pair Serve with Close.
func (h *Host) Serve(ln net.Listener, opt Options, problem problems.Problem, handle func(HostEvent)) {
	// Each result is handled before its reader's next Recv, which is
	// ReuseMessages' contract: readers decode into per-connection scratch.
	opt.ReuseMessages = true
	h.ln, h.opt, h.handle = ln, opt, handle
	h.welcome = Welcome{Problem: MultiProblem, HeartbeatMillis: uint32(opt.Heartbeat.Milliseconds())}
	if problem != nil {
		h.welcome.Problem = problem.Name()
		h.welcome.NumVars = uint32(problem.NumVars())
		h.welcome.NumObjs = uint32(problem.NumObjs())
		h.nconstrs = problems.NumConstraints(problem)
	}
	h.conns = make(map[net.Conn]*Conn)
	h.byID = make(map[uint64]*Session)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed: host stopping
			}
			h.wg.Add(1)
			go h.serveConn(nc)
		}
	}()
}

// Reserve keeps fresh worker ids above id. Ids that reconnecting
// workers announce are reserved as they arrive; a master resuming a
// recorded run reserves the ids in its log before Serve.
func (h *Host) Reserve(id uint64) {
	for {
		cur := h.nextID.Load()
		if cur >= id || h.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// welcomed marks, in Host.conns, a connection whose Welcome is on its
// way but whose Conn the handshake has not returned yet.
var welcomed = new(Conn)

// track records how far an accepted connection got — nil while it
// awaits the Hello, welcomed, then its Conn — so Close reaches it whether
// or not the handler ever saw it. Once the host is closed it reports false.
func (h *Host) track(nc net.Conn, state *Conn) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		h.conns[nc] = state
	}
	return !h.closed
}

// serveConn handshakes one connection and reads it until it dies.
func (h *Host) serveConn(nc net.Conn) {
	defer h.wg.Done()
	defer nc.Close()
	if !h.track(nc, nil) {
		return
	}
	defer func() {
		h.mu.Lock()
		delete(h.conns, nc)
		h.mu.Unlock()
	}()
	var id uint64
	conn, _, err := ServerHandshake(nc, h.opt, func(hello Hello) (*Welcome, error) {
		if !h.track(nc, welcomed) {
			return nil, net.ErrClosed // not welcomed: the worker redials, as if refused
		}
		if id = hello.WorkerID; id != 0 {
			h.Reserve(id) // reconnect keeps its identity
		} else {
			id = h.nextID.Add(1)
		}
		w := h.welcome
		w.WorkerID = id
		return &w, nil
	})
	if err != nil {
		return
	}
	defer conn.Close()
	conn.StartHeartbeat(0)
	if !h.track(nc, conn) {
		// Welcomed while Close swept: Close left it to us. (stop was
		// written before closed, under the lock track just took.)
		if h.stop {
			_ = conn.Send(Stop{})
		}
		return
	}
	s := &Session{ID: id, conn: conn}
	alive := h.deliver(HostEvent{Kind: HostJoin, Sess: s})
	for alive {
		m, err := conn.Recv()
		if err != nil {
			h.deliver(HostEvent{Kind: HostDead, Sess: s, Err: err})
			return
		}
		r, ok := m.(*Result)
		if !ok {
			continue // nothing but results is expected after the handshake
		}
		if err := h.check(r); err != nil {
			h.deliver(HostEvent{Kind: HostDead, Sess: s, Err: err})
			return
		}
		alive = h.deliver(HostEvent{Kind: HostResult, Sess: s, Result: r})
	}
}

// check validates a result against the dimensions the handshake fixed
// for a single-problem session; a MultiProblem master checks each
// result against its own job.
func (h *Host) check(r *Result) error {
	if h.welcome.Problem == MultiProblem {
		return nil
	}
	if want := int(h.welcome.NumObjs); len(r.Objs) != want {
		return fmt.Errorf("wire: result with %d objectives, want %d", len(r.Objs), want)
	}
	if len(r.Constrs) != h.nconstrs {
		return fmt.Errorf("wire: result with %d constraint violations, want %d", len(r.Constrs), h.nconstrs)
	}
	return nil
}

// deliver hands one event to the handler under the loop lock; it
// reports false once Close has begun, and the reader then stops.
func (h *Host) deliver(e HostEvent) bool {
	// A free lock is no wait; only a contended one reads the clock.
	if !h.loop.TryLock() {
		start := time.Now()
		h.loop.Lock()
		e.Wait = time.Since(start).Seconds()
	}
	defer h.loop.Unlock()
	if h.halted {
		return false
	}
	h.handle(e)
	return true
}

// Do runs fn under the loop lock: everything a master reacts to besides
// its sessions' events (lease ticks, wall limits, API calls) enters
// through here, so fn may use the master state and the
// loop-lock methods. It must not call Close.
func (h *Host) Do(fn func()) {
	h.loop.Lock()
	defer h.loop.Unlock()
	fn()
}

// Admit installs a joined session. A live session already holding the
// worker id (reconnect-with-hello) is dropped and returned, so the
// driver can retire what it held.
func (h *Host) Admit(s *Session) (replaced *Session) {
	if old := h.byID[s.ID]; old != nil && old != s {
		h.Drop(old)
		replaced = old
	}
	h.byID[s.ID] = s
	return replaced
}

// Drop closes a session and removes it from the table; it reports false
// and does nothing when the session was already gone (a late HostDead of
// a replaced session, a second drop after a failed send).
func (h *Host) Drop(s *Session) bool {
	if s.gone {
		return false
	}
	s.gone = true
	s.conn.Close()
	if h.byID[s.ID] == s {
		delete(h.byID, s.ID)
	}
	return true
}

// Lookup returns the live session of a worker id, or nil.
func (h *Host) Lookup(worker int) *Session { return h.byID[uint64(worker)] }

// Live is the number of admitted, not yet dropped sessions.
func (h *Host) Live() int { return len(h.byID) }

// Grant sends item to the session's worker as an Evaluate under the
// given wire lease (problem names it in a MultiProblem fleet, else "").
// It returns the measured send time in seconds — the direct T_C sample.
// On error the caller drops the session.
func (h *Host) Grant(s *Session, lease uint64, item *master.Item, problem string) (float64, error) {
	h.grant = Evaluate{
		Lease:    lease,
		SolID:    item.S.ID,
		Operator: int32(item.S.Operator),
		Problem:  problem,
		Vars:     item.S.Vars,
	}
	start := time.Now()
	if err := s.conn.Send(&h.grant); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// Stop tells a worker to exit instead of redialing; it is inert for a
// worker without a live session.
func (h *Host) Stop(worker int) {
	if s := h.Lookup(worker); s != nil {
		_ = s.conn.Send(Stop{})
	}
}

// Close stops accepting, closes every connection the host accepted —
// admitted, handshaking, or handshaken after the last event the
// handler saw — and waits for its goroutines. It waits for a handler
// call in progress; none starts after it. With stop, each worker is
// first sent Stop, which a healthy worker reads ahead of the FIN and
// exits instead of redialing. Call it from outside the handler and Do;
// later calls do nothing.
func (h *Host) Close(stop bool) {
	// Holding the loop lock across the sweep keeps readers that are
	// waiting to deliver from leaving, and closing their connections,
	// ahead of the Stop.
	h.loop.Lock()
	if h.halted {
		h.loop.Unlock()
		return
	}
	h.halted = true
	h.mu.Lock()
	h.closed, h.stop = true, stop
	conns := h.conns
	h.conns = nil
	h.mu.Unlock()
	h.ln.Close()
	for nc, conn := range conns {
		switch conn {
		case nil:
			nc.Close() // never welcomed: nothing to stop
		case welcomed:
			// Its handshake is finishing; serveConn stops and closes it.
		default:
			if stop {
				_ = conn.Send(Stop{})
			}
			conn.Close()
		}
	}
	h.loop.Unlock()
	h.wg.Wait()
}

// Fill copies a result's objectives and constraint violations into the
// leased item — the result itself is reader scratch — and returns the
// evaluation time in seconds (the T_F sample).
func (r *Result) Fill(item *master.Item) float64 {
	item.S.SetResult(r.Objs, r.Constrs)
	return float64(r.EvalNanos) / 1e9
}

// TickInterval is how often a master loop feeds EvTick for a given
// lease timeout: four checks per lease, at most one every 10ms.
func TickInterval(lease time.Duration) time.Duration {
	if d := lease / 4; d > 10*time.Millisecond {
		return d
	}
	return 10 * time.Millisecond
}

// FrameSink is a handshake-less listener: each connection is a one-way
// stream of frames (a ring predecessor's migrants).
type FrameSink struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
	done  bool
}

// ServeFrames accepts streams on ln and hands every decoded message to
// deliver, on the stream's reader goroutine (so concurrently across
// streams). A torn or corrupt frame ends that stream only.
func ServeFrames(ln net.Listener, deliver func(Message)) *FrameSink {
	f := &FrameSink{ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			if f.done {
				nc.Close()
			} else {
				f.conns = append(f.conns, nc)
			}
			f.mu.Unlock()
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				var buf []byte // payload scratch; messages never alias it
				for {
					m, next, err := ReadMessageBuf(br, buf)
					if buf = next; err != nil {
						return
					}
					deliver(m)
				}
			}()
		}
	}()
	return f
}

// Close stops accepting, closes every stream and waits for the readers;
// deliver must not block past this call.
func (f *FrameSink) Close() {
	f.ln.Close()
	f.mu.Lock()
	f.done = true
	for _, nc := range f.conns {
		nc.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}
