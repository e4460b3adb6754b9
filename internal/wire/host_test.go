package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
)

// hostConn keeps failure detection snappy without relying on it.
var hostConn = Options{Heartbeat: 50 * time.Millisecond, IdleTimeout: 5 * time.Second}

// testHost is a Host whose handler forwards a copy of every event to a
// channel, so a test can step through them. The test goroutine is then
// the only user of the session table, so it calls the loop-lock
// methods directly.
type testHost struct {
	*Host
	events chan HostEvent
}

// serveHost starts a host on a fresh loopback listener. The test owns
// the Close (its mode is what several tests are about).
func serveHost(t *testing.T, problem problems.Problem) (*testHost, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &testHost{Host: new(Host), events: make(chan HostEvent, 64)}
	h.Serve(ln, hostConn, problem, func(e HostEvent) {
		if e.Result != nil {
			// The result is reader scratch: keep a copy.
			r := *e.Result
			r.Objs = append([]float64(nil), r.Objs...)
			r.Constrs = append([]float64(nil), r.Constrs...)
			e.Result = &r
		}
		h.events <- e
	})
	return h, ln.Addr().String()
}

// dialHost performs the client handshake and returns the connection and
// the id the host assigned (or echoed).
func dialHost(t *testing.T, addr string, announce uint64) (*Conn, uint64) {
	t.Helper()
	c, w, err := Dial(addr, Hello{WorkerID: announce}, hostConn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, w.WorkerID
}

// nextEvent waits for the host's next event and checks its kind.
func nextEvent(t *testing.T, h *testHost, want HostEventKind) HostEvent {
	t.Helper()
	select {
	case e := <-h.events:
		if e.Kind != want {
			t.Fatalf("event kind %d (err %v), want %d", e.Kind, e.Err, want)
		}
		return e
	case <-time.After(5 * time.Second):
		t.Fatalf("no event of kind %d within 5s", want)
	}
	panic("unreachable")
}

func testItem(lease uint64, nvars int) *master.Item {
	return &master.Item{ID: lease, S: &core.Solution{ID: 7, Operator: 2, Vars: make([]float64, nvars)}}
}

// TestHostSessionEventOrder: one session's events arrive as join,
// results, dead; a grant reaches the worker under the caller's wire
// lease and its answer fills the leased item.
func TestHostSessionEventOrder(t *testing.T) {
	p := problems.NewDTLZ2(3)
	h, addr := serveHost(t, p)
	defer h.Close(true)
	c, id := dialHost(t, addr, 0)

	s := nextEvent(t, h, HostJoin).Sess
	if s.ID != id || h.Admit(s) != nil || h.Live() != 1 || h.Lookup(int(id)) != s {
		t.Fatalf("join of worker %d: session %d, %d live", id, s.ID, h.Live())
	}
	item := testItem(11, p.NumVars())
	if tc, err := h.Grant(s, 99, item, ""); err != nil || tc < 0 {
		t.Fatalf("grant: tc=%v err=%v", tc, err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := m.(*Evaluate)
	if !ok || ev.Lease != 99 || ev.SolID != 7 || ev.Operator != 2 || len(ev.Vars) != p.NumVars() || ev.Problem != "" {
		t.Fatalf("worker received %#v, want the granted evaluate under wire lease 99", m)
	}
	// A stray non-result frame is ignored, not surfaced.
	if err := c.Send(&Hello{WorkerID: id}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&Result{Lease: 99, SolID: 7, EvalNanos: 2e6, Objs: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	e := nextEvent(t, h, HostResult)
	if e.Sess != s || e.Result.Lease != 99 {
		t.Fatalf("result event %+v, want lease 99 from the joined session", e)
	}
	if sec := e.Result.Fill(item); sec != 0.002 || len(item.S.Objs) != 3 || item.S.Objs[2] != 3 {
		t.Fatalf("Fill: %v s, objs %v", sec, item.S.Objs)
	}
	c.Close()
	if e := nextEvent(t, h, HostDead); e.Sess != s || e.Err == nil {
		t.Fatalf("dead event %+v, want the joined session with a cause", e)
	}
	if !h.Drop(s) || h.Live() != 0 || h.Lookup(int(id)) != nil || !s.Gone() {
		t.Fatal("drop of the dead session did not clear the table")
	}
}

// TestHostStampsLoopWait: a result whose reader finds the loop lock
// free is delivered with no wait, without reading the clock; one that
// arrives while the master holds the lock carries the time it waited —
// the queue wait the master loops report.
func TestHostStampsLoopWait(t *testing.T) {
	p := problems.NewDTLZ2(3)
	h, addr := serveHost(t, p)
	defer h.Close(true)
	c, _ := dialHost(t, addr, 0)
	h.Admit(nextEvent(t, h, HostJoin).Sess)
	result := &Result{Lease: 1, Objs: []float64{1, 2, 3}}
	if err := c.Send(result); err != nil {
		t.Fatal(err)
	}
	if e := nextEvent(t, h, HostResult); e.Wait != 0 {
		t.Fatalf("uncontended result waited %v s, want 0", e.Wait)
	}
	const hold = 30 * time.Millisecond
	h.Do(func() {
		if err := c.Send(result); err != nil {
			t.Error(err)
		}
		time.Sleep(hold)
	})
	if e := nextEvent(t, h, HostResult); e.Wait < (hold / 2).Seconds() {
		t.Fatalf("result queued behind a %v hold waited %v s", hold, e.Wait)
	}
}

// TestHostReconnectReplaces: a redial announcing a live id replaces the
// old session and hands it back; the old session's late HostDead and a
// second Drop are inert.
func TestHostReconnectReplaces(t *testing.T) {
	h, addr := serveHost(t, problems.NewDTLZ2(3))
	defer h.Close(true)
	_, id := dialHost(t, addr, 0)
	old := nextEvent(t, h, HostJoin).Sess
	h.Admit(old)

	if _, again := dialHost(t, addr, id); again != id {
		t.Fatalf("redial announcing %d was welcomed as %d", id, again)
	}
	cur := nextEvent(t, h, HostJoin).Sess
	if got := h.Admit(cur); got != old {
		t.Fatalf("Admit returned %v, want the replaced session", got)
	}
	if !old.Gone() || cur.Gone() || h.Lookup(int(id)) != cur || h.Live() != 1 {
		t.Fatalf("after replace: old gone=%v cur gone=%v live=%d", old.Gone(), cur.Gone(), h.Live())
	}
	// The replaced connection was closed, so its reader reports it dead;
	// that stale event must not disturb the new session.
	if e := nextEvent(t, h, HostDead); e.Sess != old {
		t.Fatal("dead event of a session other than the replaced one")
	}
	if h.Drop(old) || h.Lookup(int(id)) != cur || h.Live() != 1 {
		t.Fatal("stale HostDead after replace disturbed the table")
	}
	if !h.Drop(cur) || h.Drop(cur) || h.Live() != 0 {
		t.Fatal("Drop is not idempotent")
	}
}

// TestHostFreshIDsSkipAnnounced is the id-collision regression at the
// host: fresh ids stay above every announced and every reserved id.
func TestHostFreshIDsSkipAnnounced(t *testing.T) {
	h := new(Host)
	h.Reserve(4) // a resumed log's highest id, before Serve
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.Serve(ln, hostConn, nil, func(HostEvent) {})
	defer h.Close(false)
	addr := ln.Addr().String()

	if _, id := dialHost(t, addr, 0); id != 5 {
		t.Fatalf("first fresh id %d, want 5 (above the reserved 4)", id)
	}
	if _, id := dialHost(t, addr, 9); id != 9 {
		t.Fatalf("announced id 9 welcomed as %d", id)
	}
	if _, id := dialHost(t, addr, 2); id != 2 {
		t.Fatalf("announced id 2 welcomed as %d", id)
	}
	for want := uint64(10); want < 13; want++ {
		if _, id := dialHost(t, addr, 0); id != want {
			t.Fatalf("fresh id %d, want %d (above the announced 9)", id, want)
		}
	}
}

// TestHostGrantFailureSurfaces: a failed send comes back to the caller,
// who drops the session; the host does not hide it.
func TestHostGrantFailureSurfaces(t *testing.T) {
	p := problems.NewDTLZ2(3)
	h, addr := serveHost(t, p)
	defer h.Close(true)
	dialHost(t, addr, 0)
	s := nextEvent(t, h, HostJoin).Sess
	h.Admit(s)
	s.conn.Close() // the link dies under the master
	if _, err := h.Grant(s, 1, testItem(1, p.NumVars()), ""); err == nil {
		t.Fatal("grant on a dead link reported success")
	}
	if s.Gone() || !h.Drop(s) {
		t.Fatal("the host dropped the session itself; that is the caller's decision")
	}
}

// TestHostResultSizeChecked: a single-problem session's results must
// have the handshake's objective count; anything else ends the session
// before the master loop can feed it to the algorithm.
func TestHostResultSizeChecked(t *testing.T) {
	h, addr := serveHost(t, problems.NewDTLZ2(3))
	defer h.Close(true)
	c, _ := dialHost(t, addr, 0)
	s := nextEvent(t, h, HostJoin).Sess
	h.Admit(s)
	if err := c.Send(&Result{Lease: 1, Objs: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if e := nextEvent(t, h, HostDead); e.Sess != s || !strings.Contains(e.Err.Error(), "2 objectives, want 3") {
		t.Fatalf("dead event %v, want an objective-count error", e.Err)
	}
}

// twoConstraints gives a problem two always-satisfied constraints.
type twoConstraints struct{ problems.Problem }

func (twoConstraints) NumConstraints() int { return 2 }

func (p twoConstraints) EvaluateWithConstraints(vars, objs, constrs []float64) {
	p.Evaluate(vars, objs)
	clear(constrs)
}

// TestHostResultConstraintsChecked: a single-problem session's results
// must also carry the problem's constraint count — violations from an
// unconstrained problem, or too few for a constrained one, would
// otherwise be folded into the solution and turn a feasible point
// infeasible.
func TestHostResultConstraintsChecked(t *testing.T) {
	for _, tc := range []struct {
		name    string
		problem problems.Problem
		constrs []float64
		want    string // "" = delivered as a result
	}{
		{"unconstrained with a violation", problems.NewDTLZ2(3), []float64{0.5}, "1 constraint violations, want 0"},
		{"constrained without violations", twoConstraints{problems.NewDTLZ2(3)}, nil, "0 constraint violations, want 2"},
		{"constrained with both", twoConstraints{problems.NewDTLZ2(3)}, []float64{0, 0.25}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, addr := serveHost(t, tc.problem)
			defer h.Close(true)
			c, _ := dialHost(t, addr, 0) // a hand-rolled worker
			s := nextEvent(t, h, HostJoin).Sess
			h.Admit(s)
			if err := c.Send(&Result{Lease: 1, Objs: []float64{1, 2, 3}, Constrs: tc.constrs}); err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if e := nextEvent(t, h, HostResult); len(e.Result.Constrs) != len(tc.constrs) {
					t.Fatalf("delivered %v, want %v", e.Result.Constrs, tc.constrs)
				}
				return
			}
			if e := nextEvent(t, h, HostDead); e.Sess != s || !strings.Contains(e.Err.Error(), tc.want) {
				t.Fatalf("dead event %v, want %q", e.Err, tc.want)
			}
		})
	}
}

// TestHostConcurrentSessionsOrder: with several sessions delivering at
// once, the handler runs one event at a time, each session's events
// arrive join → results in send order → dead, and a handler that
// blocks in one session holds back every other session (and Do) without
// reordering any of them.
func TestHostConcurrentSessionsOrder(t *testing.T) {
	const workers, results, blockAt = 4, 50, 10
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := new(Host)
	var (
		inside   atomic.Int32
		overlaps atomic.Int32
		logs     = map[uint64][]string{} // loop-locked
		dead     int                     // loop-locked
		blocked  = make(chan struct{})
		release  = make(chan struct{})
		allDead  = make(chan struct{})
		holding  bool // loop-locked: a handler is parked on release
		didBlock bool // loop-locked
	)
	h.Serve(ln, hostConn, problems.NewDTLZ2(3), func(e HostEvent) {
		if inside.Add(1) != 1 {
			overlaps.Add(1)
		}
		defer inside.Add(-1)
		id := e.Sess.ID
		switch e.Kind {
		case HostJoin:
			h.Admit(e.Sess)
			logs[id] = append(logs[id], "join")
		case HostResult:
			logs[id] = append(logs[id], fmt.Sprint(e.Result.Lease))
			if e.Result.Lease == blockAt && !didBlock {
				didBlock, holding = true, true
				close(blocked)
				<-release
				holding = false
			}
		case HostDead:
			logs[id] = append(logs[id], "dead")
			if dead++; dead == workers {
				close(allDead)
			}
		}
	})
	defer h.Close(true)

	var sent sync.WaitGroup
	for w := 0; w < workers; w++ {
		c, _ := dialHost(t, ln.Addr().String(), 0)
		sent.Add(1)
		go func() {
			defer sent.Done()
			for lease := uint64(1); lease <= results; lease++ {
				if err := c.Send(&Result{Lease: lease, Objs: []float64{1, 2, 3}}); err != nil {
					t.Error(err)
					return
				}
			}
			c.Close()
		}()
	}
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("no session reached the blocking result")
	}
	sent.Wait() // every other session's frames are in; their readers queue on the lock
	ran := make(chan bool, 1)
	go h.Do(func() { ran <- holding })
	select {
	case <-ran:
		t.Fatal("Do ran while a handler held the loop lock")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if stillHolding := <-ran; stillHolding {
		t.Fatal("Do ran inside a blocked handler")
	}
	select {
	case <-allDead:
	case <-time.After(5 * time.Second):
		t.Fatal("not every session reported dead")
	}
	h.Close(true)

	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d handler calls overlapped another", n)
	}
	want := []string{"join"}
	for lease := 1; lease <= results; lease++ {
		want = append(want, fmt.Sprint(lease))
	}
	want = append(want, "dead")
	if len(logs) != workers {
		t.Fatalf("events from %d sessions, want %d", len(logs), workers)
	}
	for id, got := range logs {
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("session %d saw %v, want %v", id, got, want)
		}
	}
}

// TestSocketCallsPerEvaluation pins the socket traffic of one
// evaluation on a one-worker loopback fleet with heartbeats off:
// exactly two write calls (the grant, the result). Reads are reported:
// one per frame when the frame is whole in the kernel buffer.
func TestSocketCallsPerEvaluation(t *testing.T) {
	const n = 200
	p := problems.NewDTLZ2(3)
	reg := obs.NewRegistry()
	opt := Options{Heartbeat: -1, IdleTimeout: 10 * time.Second, Metrics: reg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := new(Host)
	item := testItem(0, p.NumVars())
	done := make(chan struct{})
	var lease uint64 // loop-locked
	grant := func(s *Session) {
		lease++
		if _, err := h.Grant(s, lease, item, ""); err != nil {
			t.Error(err)
		}
	}
	h.Serve(ln, opt, p, func(e HostEvent) {
		switch e.Kind {
		case HostJoin:
			h.Admit(e.Sess)
			grant(e.Sess)
		case HostResult:
			if lease < n {
				grant(e.Sess)
			} else {
				close(done)
			}
		}
	})
	worker := make(chan error, 1)
	go func() { worker <- RunWorker(context.Background(), WorkerConfig{Addr: ln.Addr().String(), Conn: opt}) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("evaluations did not finish")
	}
	h.Close(true)
	if err := <-worker; err != nil {
		t.Fatalf("worker: %v", err)
	}
	// Hello, Welcome and Stop, plus a grant and a result per evaluation.
	writes := reg.Counter(MetricWriteCalls).Value()
	if writes != 2*n+3 {
		t.Fatalf("%d write calls for %d evaluations, want %d (2 per evaluation + 3)", writes, n, 2*n+3)
	}
	reads := reg.Counter(MetricReadCalls).Value()
	t.Logf("%d evaluations: %d write calls, %d read calls (%.2f per evaluation)", n, writes, reads, float64(reads)/n)
	if reads < 2*n {
		t.Fatalf("%d read calls, fewer than one per received frame", reads)
	}
}

// TestHostCloseStops: Close(true) ends RunWorker cleanly — for a
// session the loop admitted, for one it never read (a late joiner), and
// for a connection still handshaking.
func TestHostCloseStops(t *testing.T) {
	p := problems.NewDTLZ2(3)
	h, addr := serveHost(t, p)
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{Addr: addr, Conn: hostConn})
	}()
	h.Admit(nextEvent(t, h, HostJoin).Sess)
	late, _ := dialHost(t, addr, 0) // handshaken, its join never read
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close() // connected, no Hello sent yet

	h.Close(true)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunWorker after Close(true) returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWorker still attached 5s after Close(true)")
	}
	if m, err := late.Recv(); err != nil || m.Tag() != TagStop {
		t.Fatalf("late joiner read %v, %v; want Stop", m, err)
	}
	if _, err := late.Recv(); err == nil {
		t.Fatal("late joiner still connected after Close")
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) && !isReset(err) {
		t.Fatalf("half-handshaken connection read %v after Close, want it closed", err)
	}
	if _, _, err := Dial(addr, Hello{}, hostConn); err == nil {
		t.Fatal("a closed host still accepts")
	}
}

func isReset(err error) bool { return err != nil && strings.Contains(err.Error(), "reset") }

// TestHostCloseReleases: Close(false) drops the link without a Stop, so
// RunWorker keeps redialing — the job service's fleet outlives a server.
func TestHostCloseReleases(t *testing.T) {
	h, addr := serveHost(t, nil)
	reg := obs.NewRegistry()
	opt := hostConn
	opt.Metrics = reg
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{Addr: addr, Conn: opt, Backoff: 5 * time.Millisecond})
	}()
	h.Admit(nextEvent(t, h, HostJoin).Sess)
	h.Close(false)

	redials := reg.Counter(MetricRedials)
	for deadline := time.Now().Add(5 * time.Second); redials.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker did not redial within 5s of Close(false)")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("RunWorker returned %v after Close(false); it should keep redialing", err)
	default:
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWorker returned %v, want context.Canceled", err)
	}
}

// TestServeFrames: the sink delivers every frame of every stream, a
// torn frame ends only its own stream, and Close unblocks idle readers.
func TestServeFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64, 16)
	sink := ServeFrames(ln, func(m Message) {
		if mg, ok := m.(*Migrant); ok {
			got <- mg.Epoch
		}
	})
	dial := func() net.Conn {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return nc
	}
	send := func(nc net.Conn, epoch uint64) {
		mg := &Migrant{Island: 1, Epoch: epoch, Vars: []float64{1}, Objs: []float64{2}}
		if _, err := nc.Write(AppendFrame(nil, mg)); err != nil {
			t.Fatal(err)
		}
	}
	want := func(epoch uint64) {
		t.Helper()
		select {
		case e := <-got:
			if e != epoch {
				t.Fatalf("delivered epoch %d, want %d", e, epoch)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("epoch %d not delivered within 5s", epoch)
		}
	}
	a, b := dial(), dial()
	send(a, 1)
	want(1)
	send(b, 2)
	want(2)

	// Tear stream a mid-frame: a length prefix promising 64 bytes, 3 sent.
	var torn [7]byte
	binary.BigEndian.PutUint32(torn[:4], 64)
	if _, err := a.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	a.Close()
	send(b, 3)
	want(3)

	closed := make(chan struct{})
	go func() { sink.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the reader of an idle stream")
	}
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Fatal("stream still open after Close")
	}
}

// TestNoHandRolledHosts keeps the copies from growing back: under
// internal/, only host.go may accept connections or run the server
// handshake, and no package — host.go included — may pass worker events
// from readers to a master over a channel again: the host's readers
// deliver them to the handler themselves.
func TestNoHandRolledHosts(t *testing.T) {
	hosting := regexp.MustCompile(`\.Accept\(\)|\bServerHandshake\(`)
	hop := regexp.MustCompile(`chan\s+(\*?wire\.)?\*?HostEvent\b|\bEvents\(\)\s+<-chan|\bhost\.Events\(\)`)
	decl := "func ServerHandshake("
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		isHost := filepath.ToSlash(path) == "../wire/host.go"
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if !isHost && hosting.MatchString(code) && !strings.HasPrefix(line, decl) {
				t.Errorf("%s:%d: %s\n\tsocket hosting belongs in internal/wire/host.go (wire.Host, wire.ServeFrames)", path, i+1, strings.TrimSpace(line))
			}
			if hop.MatchString(code) {
				t.Errorf("%s:%d: %s\n\tworker events reach a master through Host.Serve's handler, not a channel", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// masterLoopHomes are the only files under internal/ that may host a
// master loop, by kind: Host.Serve (a socket host handing worker events
// to a master) and a DES process started with Engine.Go or GoAfter. The
// asynchronous master is written once per transport: one socket master,
// federation.SocketMaster, serves RunAsyncDistributed, every TCP island
// and the job scheduler; startMaster serves RunAsync and every DES
// island, beside RunSync's generational loop and the simulation model's
// processes.
var masterLoopHomes = map[string][]string{
	"Host.Serve": {"federation/master.go"},
	"Engine.Go":  {"parallel/async.go", "parallel/sync.go", "model/simulation.go"},
}

// TestNoHandRolledMasterLoop keeps a second copy of a master loop from
// growing back: outside masterLoopHomes, no non-test file under
// internal/ calls Host.Serve — recognised as a Serve call with four
// arguments, the listener, options, problem and handler — or starts a
// process — a Go or GoAfter call handed a func(*des.Process) literal.
func TestNoHandRolledMasterLoop(t *testing.T) {
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel := strings.TrimPrefix(filepath.ToSlash(path), "../")
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind := ""
			switch name := sel.Sel.Name; {
			case name == "Serve" && len(call.Args) == 4:
				kind = "Host.Serve"
			case (name == "Go" || name == "GoAfter") && startsProcess(call.Args):
				kind = "Engine.Go"
			default:
				return true
			}
			for _, home := range masterLoopHomes[kind] {
				if rel == home || strings.HasSuffix(home, "/") && strings.HasPrefix(rel, home) {
					return true
				}
			}
			t.Errorf("%s: %s call outside %v\n\ta master loop is written once per transport: serve a TCP fleet with the one socket master, federation.SocketMaster (a Router shares it among many cores), and simulate one with parallel's startMaster",
				fset.Position(call.Pos()), kind, masterLoopHomes[kind])
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// startsProcess reports whether args end in a func literal taking a
// *des.Process — the body of a DES process.
func startsProcess(args []ast.Expr) bool {
	if len(args) == 0 {
		return false
	}
	lit, ok := args[len(args)-1].(*ast.FuncLit)
	if !ok || len(lit.Type.Params.List) != 1 {
		return false
	}
	star, ok := lit.Type.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "Process"
	case *ast.Ident:
		return x.Name == "Process"
	}
	return false
}
