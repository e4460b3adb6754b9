package cluster

import (
	"math"
	"testing"

	"borgmoea/internal/des"
	"borgmoea/internal/stats"
)

func TestSendRecvInstant(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	var got Message
	var at des.Time
	received := false
	eng.Go("recv", func(p *des.Process) {
		got = c.Node(1).Recv(p)
		at = p.Now()
		received = true
	})
	eng.Go("send", func(p *des.Process) {
		p.Hold(2)
		c.Node(0).Send(1, 7, "hello")
	})
	eng.Run()
	if !received {
		t.Fatal("message never received")
	}
	if got.From != 0 || got.To != 1 || got.Tag != 7 || got.Payload.(string) != "hello" {
		t.Fatalf("message corrupted: %+v", got)
	}
	if at != 2 {
		t.Fatalf("received at %v, want 2 (zero transit)", at)
	}
}

func TestTransitLatency(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2, Transit: stats.NewConstant(0.5)})
	var at des.Time = -1
	eng.Go("recv", func(p *des.Process) {
		c.Node(1).Recv(p)
		at = p.Now()
	})
	eng.Go("send", func(p *des.Process) {
		c.Node(0).Send(1, 0, nil)
	})
	eng.Run()
	if at != 0.5 {
		t.Fatalf("received at %v, want 0.5", at)
	}
}

func TestRecvBeforeSendParks(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	order := []string{}
	eng.Go("recv", func(p *des.Process) {
		order = append(order, "recv-start")
		c.Node(1).Recv(p)
		order = append(order, "recv-done")
	})
	eng.GoAfter(1, "send", func(p *des.Process) {
		order = append(order, "send")
		c.Node(0).Send(1, 0, nil)
	})
	eng.Run()
	want := []string{"recv-start", "send", "recv-done"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInboxBuffersFIFO(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	eng.Go("send", func(p *des.Process) {
		for i := 0; i < 5; i++ {
			c.Node(0).Send(1, i, i)
		}
	})
	var tags []int
	eng.GoAfter(1, "recv", func(p *des.Process) {
		if c.Node(1).InboxLen() != 5 {
			t.Errorf("inbox len = %d, want 5", c.Node(1).InboxLen())
		}
		for i := 0; i < 5; i++ {
			tags = append(tags, c.Node(1).Recv(p).Tag)
		}
	})
	eng.Run()
	for i, tag := range tags {
		if tag != i {
			t.Fatalf("messages out of FIFO order: %v", tags)
		}
	}
}

func TestRecvTimeoutExpires(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 1})
	var ok bool
	var at des.Time
	eng.Go("recv", func(p *des.Process) {
		_, ok = c.Node(0).RecvTimeout(p, 3)
		at = p.Now()
	})
	eng.Run()
	if ok {
		t.Fatal("RecvTimeout returned a message from an empty cluster")
	}
	if at != 3 {
		t.Fatalf("timeout fired at %v, want 3", at)
	}
}

func TestRecvTimeoutDeliveredInTime(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	var ok bool
	eng.Go("recv", func(p *des.Process) {
		_, ok = c.Node(1).RecvTimeout(p, 3)
	})
	eng.GoAfter(1, "send", func(p *des.Process) {
		c.Node(0).Send(1, 0, nil)
	})
	eng.Run()
	if !ok {
		t.Fatal("message arriving before deadline was not received")
	}
}

func TestRecvTimeoutRaceAtSameInstant(t *testing.T) {
	// Delivery scheduled at exactly the deadline: whichever event runs
	// first wins, but the process must wake exactly once and the
	// outcome must be consistent (either (msg, true) or (nil, false)
	// with the message left in the inbox).
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	var ok bool
	eng.Go("recv", func(p *des.Process) {
		_, ok = c.Node(1).RecvTimeout(p, 1)
	})
	eng.Go("send", func(p *des.Process) {
		p.Hold(1)
		c.Node(0).Send(1, 0, nil)
	})
	eng.Run()
	if !ok && c.Node(1).InboxLen() != 1 {
		t.Fatal("timed out and lost the message")
	}
	if ok && c.Node(1).InboxLen() != 0 {
		t.Fatal("received but message still queued")
	}
}

func TestFailedNodeDropsMessages(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	c.Node(1).Fail()
	eng.Go("send", func(p *des.Process) {
		c.Node(0).Send(1, 0, nil)
	})
	eng.Run()
	if c.Node(1).InboxLen() != 0 {
		t.Fatal("failed node received a message")
	}
	if !c.Node(1).Failed() {
		t.Fatal("Failed() = false after Fail()")
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	var recovered any
	eng.Go("p", func(p *des.Process) {
		defer func() { recovered = recover() }()
		c.Node(0).Send(5, 0, nil)
	})
	eng.Run()
	if recovered == nil {
		t.Fatal("Send to invalid rank did not panic")
	}
}

func TestBusyAccounting(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 1})
	n := c.Node(0)
	eng.Go("p", func(p *des.Process) {
		n.HoldBusy(p, 2, "eval")
		p.Hold(2) // idle
		n.HoldBusy(p, 1, "comm")
	})
	eng.Run()
	if got := n.BusyTime(); math.Abs(got-3) > 1e-12 {
		t.Errorf("BusyTime = %v, want 3", got)
	}
}

func TestBusyNesting(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 1})
	n := c.Node(0)
	eng.Go("p", func(p *des.Process) {
		n.BeginBusy()
		p.Hold(1)
		n.BeginBusy() // nested — must not double count
		p.Hold(1)
		n.EndBusy()
		p.Hold(1)
		n.EndBusy()
	})
	eng.Run()
	if got := n.BusyTime(); math.Abs(got-3) > 1e-12 {
		t.Errorf("nested BusyTime = %v, want 3", got)
	}
}

func TestBusyOpenIntervalCounted(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 1})
	n := c.Node(0)
	eng.Go("p", func(p *des.Process) {
		n.BeginBusy()
		p.Hold(5)
		// interval left open deliberately
	})
	eng.Run()
	if got := n.BusyTime(); math.Abs(got-5) > 1e-12 {
		t.Errorf("open-interval BusyTime = %v, want 5", got)
	}
}

func TestEndBusyPanicsWhenIdle(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("EndBusy on idle node did not panic")
		}
	}()
	c.Node(0).EndBusy()
}

// TestPingPongRoundTrip runs the paper's master/worker message pattern
// for one cycle and checks the Eq. 2 cost TF + 2*TC + TA.
func TestPingPongRoundTrip(t *testing.T) {
	const (
		tc = 0.000006
		ta = 0.000029
		tf = 0.01
	)
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	master, worker := c.Node(0), c.Node(1)
	var cycleEnd des.Time
	eng.Go("master", func(p *des.Process) {
		master.HoldBusy(p, tc, "comm") // send offspring
		master.Send(1, 0, "offspring")
		master.Recv(p) // wait for result
		master.HoldBusy(p, tc, "comm")
		master.HoldBusy(p, ta, "algo")
		cycleEnd = p.Now()
	})
	eng.Go("worker", func(p *des.Process) {
		worker.Recv(p)
		worker.HoldBusy(p, tf, "eval")
		worker.Send(0, 1, "result")
	})
	eng.Run()
	want := tf + 2*tc + ta
	if math.Abs(cycleEnd-want) > 1e-12 {
		t.Fatalf("one master/worker cycle took %v, want TF+2TC+TA = %v", cycleEnd, want)
	}
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 nodes did not panic")
		}
	}()
	New(des.New(), Config{Nodes: 0})
}

// TestInboxInterleavedDeliverRecv drives the head-indexed inbox through
// bursts and partial drains — a backlog that never empties, so the
// live tail is moved down several times, then a full drain — and checks
// FIFO order and InboxLen at every step.
func TestInboxInterleavedDeliverRecv(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2})
	node := c.Node(1)
	sent, received := 0, 0
	eng.Go("driver", func(p *des.Process) {
		burst := func(send, recv int) {
			for i := 0; i < send; i++ {
				c.Node(0).Send(1, sent, nil)
				sent++
			}
			p.Hold(1) // zero-transit deliveries run before the hold ends
			if got := node.InboxLen(); got != sent-received {
				t.Fatalf("after sending %d: InboxLen = %d, want %d", sent, got, sent-received)
			}
			for i := 0; i < recv; i++ {
				if msg := node.Recv(p); msg.Tag != received {
					t.Fatalf("message %d arrived as number %d", msg.Tag, received)
				}
				received++
				if got := node.InboxLen(); got != sent-received {
					t.Fatalf("after receiving %d: InboxLen = %d, want %d", received, got, sent-received)
				}
			}
		}
		burst(5, 2)
		for i := 0; i < 40; i++ {
			burst(3, 3) // backlog holds at 3
		}
		burst(7, 1)
		burst(0, sent-received)
		burst(2, 2)
	})
	eng.Run()
	if sent != 134 || received != 134 {
		t.Fatalf("sent %d, received %d, want 134 each", sent, received)
	}
}

// TestTraceEventsExact pins the trace a traced run prints: the actor
// labels and detail strings are formatted only when a hook is set, and
// must be what they were when they were formatted always.
func TestTraceEventsExact(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 13})
	var got []string
	eng.SetTrace(func(ev des.TraceEvent) {
		got = append(got, ev.Actor+" "+ev.Kind+" "+ev.Detail)
	})
	eng.Go("worker", func(p *des.Process) {
		msg := c.Node(12).Recv(p)
		c.Node(12).HoldBusy(p, 1, "eval")
		c.Node(12).Send(msg.From, 9, nil)
	})
	eng.Go("master", func(p *des.Process) {
		c.Node(0).HoldBusy(p, 0.5, "comm")
		c.Node(0).Send(12, 7, nil)
		c.Node(0).Recv(p)
	})
	eng.Run()
	want := []string{
		"master comm.start ",
		"master comm.end ",
		"master send to=12 tag=7",
		"worker12 recv from=0 tag=7",
		"worker12 eval.start ",
		"worker12 eval.end ",
		"worker12 send to=0 tag=9",
		"master recv from=12 tag=9",
	}
	if len(got) != len(want) {
		t.Fatalf("trace = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestUntracedSendRecvDoesNotFormat: with no trace hook, a message
// costs no formatted strings — and, its carrier recycled, nothing.
func TestUntracedSendRecvDoesNotFormat(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 1025})
	allocs := testing.AllocsPerRun(200, func() {
		c.Node(1024).Send(0, 1000, nil)
		eng.Run()
		c.Node(0).inbox, c.Node(0).inboxHead = c.Node(0).inbox[:0], 0
	})
	if allocs != 0 {
		t.Fatalf("untraced Send+deliver allocates %.0f objects, want 0", allocs)
	}
}
