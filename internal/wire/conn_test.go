package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
)

// pipePair returns two connected Conns over an in-memory pipe.
func pipePair(a, b Options) (*Conn, *Conn) {
	ca, cb := net.Pipe()
	return newConn(ca, a), newConn(cb, b)
}

// tcpPair returns two connected Conns over loopback TCP.
func tcpPair(t *testing.T, a, b Options) (*Conn, *Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := l.Accept()
		if err == nil {
			accepted <- nc
		}
	}()
	nca, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ncb := <-accepted
	return newConn(nca, a), newConn(ncb, b)
}

func TestConnSendRecv(t *testing.T) {
	opt := Options{Heartbeat: -1, IdleTimeout: 2 * time.Second}
	a, b := pipePair(opt, opt)
	defer a.Close()
	defer b.Close()

	want := &Evaluate{Lease: 5, Vars: []float64{1, 2}}
	go func() { _ = a.Send(want) }()
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(*Evaluate)
	if !ok || got.Lease != 5 || len(got.Vars) != 2 {
		t.Fatalf("got %#v", m)
	}
}

// TestIdleTimeoutFires: with heartbeats disabled on both ends, a
// silent peer trips the idle deadline.
func TestIdleTimeoutFires(t *testing.T) {
	opt := Options{Heartbeat: -1, IdleTimeout: 80 * time.Millisecond}
	a, b := pipePair(opt, opt)
	defer a.Close()
	defer b.Close()

	start := time.Now()
	if _, err := a.Recv(); err == nil {
		t.Fatal("Recv on a silent connection returned a message")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle timeout took %v", elapsed)
	}
}

// TestHeartbeatKeepsIdleConnectionAlive: pings from the peer refresh
// the idle deadline (and are answered with pongs), so a protocol-idle
// but live link survives several idle windows. Runs over real TCP —
// the heartbeat exchange needs buffered transport, which net.Pipe's
// synchronous writes do not provide.
func TestHeartbeatKeepsIdleConnectionAlive(t *testing.T) {
	recvOpt := Options{Heartbeat: -1, IdleTimeout: 120 * time.Millisecond}
	sendOpt := Options{Heartbeat: 25 * time.Millisecond, IdleTimeout: 10 * time.Second}
	a, b := tcpPair(t, recvOpt, sendOpt)
	defer a.Close()
	defer b.Close()
	b.StartHeartbeat(0)

	type out struct {
		m   Message
		err error
	}
	res := make(chan out, 1)
	go func() {
		m, err := a.Recv()
		res <- out{m, err}
	}()
	// Several idle windows of silence (except heartbeats)…
	time.Sleep(400 * time.Millisecond)
	select {
	case o := <-res:
		t.Fatalf("connection died despite heartbeats: %v %v", o.m, o.err)
	default:
	}
	// …then a real message still arrives.
	go func() { _ = b.Send(Stop{}) }()
	select {
	case o := <-res:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if _, ok := o.m.(Stop); !ok {
			t.Fatalf("got %#v, want Stop", o.m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}
}

// TestDialHandshake: Dial sends Hello, the server assigns an identity
// in its Welcome, and a reconnecting worker's id is echoed back —
// reconnect-with-hello at the transport level.
func TestDialHandshake(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	opt := Options{Heartbeat: -1, IdleTimeout: 2 * time.Second}

	helloIDs := make(chan uint64, 2)
	go func() {
		for assign := uint64(7); ; assign++ {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			conn, _, err := ServerHandshake(nc, opt, func(h Hello) (*Welcome, error) {
				helloIDs <- h.WorkerID
				id := assign
				if h.WorkerID != 0 {
					id = h.WorkerID
				}
				return &Welcome{WorkerID: id, Problem: "DTLZ2_5", NumVars: 14, NumObjs: 5}, nil
			})
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	c1, w1, err := Dial(l.Addr().String(), Hello{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if w1.WorkerID != 7 || <-helloIDs != 0 {
		t.Fatalf("first connect: welcome id %d", w1.WorkerID)
	}
	c2, w2, err := Dial(l.Addr().String(), Hello{WorkerID: 7}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if w2.WorkerID != 7 || <-helloIDs != 7 {
		t.Fatalf("reconnect: welcome id %d, want echoed 7", w2.WorkerID)
	}
}

// TestRunWorkerEvaluatesAndStops drives the full borgd runtime against
// a scripted master: one evaluation round-trip, then Stop.
func TestRunWorkerEvaluatesAndStops(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	opt := Options{Heartbeat: -1, IdleTimeout: 5 * time.Second}
	problem := problems.NewDTLZ2(5)

	result := make(chan *Result, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		conn, _, err := ServerHandshake(nc, opt, func(h Hello) (*Welcome, error) {
			return &Welcome{
				WorkerID: 1,
				Problem:  problem.Name(),
				NumVars:  uint32(problem.NumVars()),
				NumObjs:  uint32(problem.NumObjs()),
			}, nil
		})
		if err != nil {
			return
		}
		defer conn.Close()
		vars := make([]float64, problem.NumVars())
		for i := range vars {
			vars[i] = 0.5
		}
		if err := conn.Send(&Evaluate{Lease: 11, SolID: 3, Operator: 2, Vars: vars}); err != nil {
			return
		}
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if r, ok := m.(*Result); ok {
			result <- r
		}
		_ = conn.Send(Stop{})
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = RunWorker(ctx, WorkerConfig{
		Addr:  l.Addr().String(),
		Conn:  opt,
		Delay: stats.NewConstant(0.001),
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	select {
	case r := <-result:
		if r.Lease != 11 || r.SolID != 3 || r.Operator != 2 {
			t.Fatalf("result echoed wrong ids: %#v", r)
		}
		if len(r.Objs) != problem.NumObjs() {
			t.Fatalf("result has %d objectives", len(r.Objs))
		}
		if r.EvalNanos == 0 {
			t.Error("EvalNanos not recorded")
		}
	default:
		t.Fatal("master never saw a result")
	}
}

// TestRunWorkerRejectsProblemMismatch: a resolvable problem whose
// dimensions disagree with the handshake is fatal, not retried.
func TestRunWorkerRejectsProblemMismatch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	opt := Options{Heartbeat: -1, IdleTimeout: 2 * time.Second}
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		conn, _, err := ServerHandshake(nc, opt, func(Hello) (*Welcome, error) {
			return &Welcome{WorkerID: 1, Problem: "DTLZ2_5", NumVars: 999, NumObjs: 5}, nil
		})
		if err == nil {
			defer conn.Close()
			_, _ = conn.Recv() // hold until the worker bails
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = RunWorker(ctx, WorkerConfig{Addr: l.Addr().String(), Conn: opt})
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want dimension-mismatch error, got %v", err)
	}
}

// TestRunWorkerMultiProblem drives a multi-problem session: the master
// welcomes with the MultiProblem sentinel and names a different problem
// on each grant; an unresolvable name fails only its lease (empty
// Result), not the connection.
func TestRunWorkerMultiProblem(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	opt := Options{Heartbeat: -1, IdleTimeout: 5 * time.Second}
	zdt1 := problems.NewZDT(1)
	dtlz2 := problems.NewDTLZ2(5)

	results := make(chan *Result, 3)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		conn, _, err := ServerHandshake(nc, opt, func(h Hello) (*Welcome, error) {
			return &Welcome{WorkerID: 1, Problem: MultiProblem}, nil
		})
		if err != nil {
			return
		}
		defer conn.Close()
		send := func(lease uint64, name string, nvars int) bool {
			vars := make([]float64, nvars)
			for i := range vars {
				vars[i] = 0.5
			}
			if err := conn.Send(&Evaluate{Lease: lease, Problem: name, Vars: vars}); err != nil {
				return false
			}
			m, err := conn.Recv()
			if err != nil {
				return false
			}
			if r, ok := m.(*Result); ok {
				results <- r
			}
			return true
		}
		// Two different problems over one connection, then a bogus name.
		if !send(1, zdt1.Name(), zdt1.NumVars()) {
			return
		}
		if !send(2, dtlz2.Name(), dtlz2.NumVars()) {
			return
		}
		if !send(3, "NOSUCH", 4) {
			return
		}
		_ = conn.Send(Stop{})
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := RunWorker(ctx, WorkerConfig{Addr: l.Addr().String(), Conn: opt}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	want := []struct {
		lease uint64
		objs  int
	}{{1, zdt1.NumObjs()}, {2, dtlz2.NumObjs()}, {3, 0}}
	for _, w := range want {
		select {
		case r := <-results:
			if r.Lease != w.lease || len(r.Objs) != w.objs {
				t.Fatalf("lease %d: got lease=%d objs=%d, want %d objs", w.lease, r.Lease, len(r.Objs), w.objs)
			}
		default:
			t.Fatalf("master never saw result for lease %d", w.lease)
		}
	}
}

// TestWriteTimeoutBounds: a Send to a peer that stopped reading fails
// once the kernel buffers fill, between 1× and 1.25× WriteTimeout after
// that Send began — the window the lazily armed write deadline
// promises (Options.WriteTimeout).
func TestWriteTimeoutBounds(t *testing.T) {
	const timeout = 200 * time.Millisecond
	a, b := tcpPair(t, Options{Heartbeat: -1, WriteTimeout: timeout}, Options{Heartbeat: -1})
	defer a.Close()
	defer b.Close() // b never reads

	// Arm the deadline early, then let part of it run down, so the
	// blocking Send starts with less than the timeout left on the armed
	// deadline and must re-arm.
	if err := a.Send(Stop{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(timeout / 2)
	big := &Evaluate{Lease: 1, Vars: make([]float64, 64<<10)} // 512 KiB frames
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("1000 sends to a peer that never reads all succeeded")
		}
		start := time.Now()
		err := a.Send(big)
		took := time.Since(start)
		if err == nil {
			continue
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("blocked send failed with %v, want a timeout", err)
		}
		// The upper bound allows scheduler slack on a loaded machine.
		if took < timeout || took > timeout*5/4+150*time.Millisecond {
			t.Fatalf("blocked send failed after %v, want within [%v, %v]", took, timeout, timeout*5/4)
		}
		return
	}
}
