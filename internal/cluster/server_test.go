package cluster

import (
	"fmt"
	"testing"

	"borgmoea/internal/des"
)

// echoServer is a callback server in the shape of the parallel
// drivers' worker: take a message, stay busy for a while, answer, take
// the next.
type echoServer struct {
	n       *Node
	busy    des.Time
	from    int
	served  []des.Time
	onDone  func()
	stopTag int
}

func (s *echoServer) serve() {
	msg, ok := s.n.TryRecv()
	if !ok {
		return
	}
	if msg.Tag == s.stopTag {
		s.n.Serve(nil)
		return
	}
	s.from = msg.From
	s.n.BusyFor(s.busy, "eval", s.onDone)
}

func (s *echoServer) done() {
	s.served = append(s.served, s.n.c.eng.Now())
	s.n.Send(s.from, 9, nil)
	s.serve()
}

func newEchoServer(n *Node, busy des.Time) *echoServer {
	s := &echoServer{n: n, busy: busy, stopTag: 99}
	s.onDone = s.done
	n.Serve(s.serve)
	return s
}

// TestServeQueuesWhileBusy: a server handles one message at a time, in
// arrival order, without a process; messages that arrive while it is
// busy wait in the inbox, and a stopped server leaves them there.
func TestServeQueuesWhileBusy(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	srv := newEchoServer(c.Node(1), 2)
	var replies []des.Time
	eng.Go("client", func(p *des.Process) {
		for i := 0; i < 3; i++ {
			c.Node(0).Send(1, i, nil) // all at t=0: two queue behind the first
		}
		for i := 0; i < 3; i++ {
			c.Node(0).Recv(p)
			replies = append(replies, p.Now())
		}
		p.Hold(10) // the server is idle again: the next delivery must re-arm it
		c.Node(0).Send(1, 3, nil)
		c.Node(0).Recv(p)
		replies = append(replies, p.Now())
		c.Node(0).Send(1, 99, nil)
		c.Node(0).Send(1, 4, nil)
	})
	eng.Run()
	eng.Shutdown()
	want := []des.Time{2, 4, 6, 18}
	if fmt.Sprint(replies) != fmt.Sprint(want) || fmt.Sprint(srv.served) != fmt.Sprint(want) {
		t.Fatalf("replies at %v, served at %v, want %v", replies, srv.served, want)
	}
	if c.Node(1).InboxLen() != 1 {
		t.Fatalf("inbox %d after stop, want the one unserved message", c.Node(1).InboxLen())
	}
	if got := c.Node(1).BusyTime(); got != 8 {
		t.Fatalf("server busy %v, want 8", got)
	}
	if _, ok := c.Node(0).TryRecv(); ok {
		t.Fatal("TryRecv returned a message from an empty inbox")
	}
}

// TestServeMatchesProcessTrace: the server produces the trace the
// process worker of TestTraceEventsExact does.
func TestServeMatchesProcessTrace(t *testing.T) {
	run := func(process bool) []string {
		eng := des.New()
		c := New(eng, Config{Nodes: 2})
		var got []string
		eng.SetTrace(func(ev des.TraceEvent) {
			got = append(got, fmt.Sprintf("%g %s %s %s", ev.At, ev.Actor, ev.Kind, ev.Detail))
		})
		if process {
			eng.Go("worker", func(p *des.Process) {
				for {
					msg := c.Node(1).Recv(p)
					c.Node(1).HoldBusy(p, 1, "eval")
					c.Node(1).Send(msg.From, 9, nil)
				}
			})
		} else {
			newEchoServer(c.Node(1), 1)
		}
		eng.Go("master", func(p *des.Process) {
			for i := 0; i < 3; i++ {
				c.Node(0).HoldBusy(p, 0.5, "comm")
				c.Node(0).Send(1, 7, nil)
				c.Node(0).Send(1, 7, nil)
				c.Node(0).Recv(p)
			}
		})
		eng.Run()
		eng.Shutdown()
		return got
	}
	server, process := run(false), run(true)
	if fmt.Sprint(server) != fmt.Sprint(process) {
		t.Fatalf("server trace\n%q\nprocess trace\n%q", server, process)
	}
	if len(server) == 0 {
		t.Fatal("empty trace")
	}
}

// TestSendRecvNoClosureAllocs: a message through Send, the delivery
// event and the parked receiver's wake allocates nothing — its carrier
// is recycled, and there is no closure and no new event — with a plain
// Recv and with a
// RecvTimeout whose deadline the message beats. The second also shows
// the canceled deadline events are recycled at once: left queued until
// their far-off timestamp, each cycle would have to allocate a new one.
func TestSendRecvNoClosureAllocs(t *testing.T) {
	for _, timeout := range []des.Time{0, 1e9} {
		eng := des.New()
		c := New(eng, Config{Nodes: 2})
		recv := func(p *des.Process, n *Node) {
			if timeout == 0 {
				n.Recv(p)
			} else if _, ok := n.RecvTimeout(p, timeout); !ok {
				t.Error("RecvTimeout expired")
			}
		}
		eng.Go("ping", func(p *des.Process) {
			for {
				p.Hold(1)
				c.Node(0).Send(1, 0, nil)
				recv(p, c.Node(0))
			}
		})
		eng.Go("pong", func(p *des.Process) {
			for {
				recv(p, c.Node(1))
				c.Node(1).Send(0, 0, nil)
			}
		})
		const trips = 100
		allocs := testing.AllocsPerRun(50, func() { eng.RunUntil(eng.Now() + trips) })
		eng.Shutdown()
		if perMsg := allocs / (2 * trips); perMsg != 0 {
			t.Fatalf("timeout %v: %.2f allocations per message, want 0", timeout, perMsg)
		}
	}
}
