package cluster

import (
	"testing"

	"borgmoea/internal/des"
)

// Tests for the failure hooks used by internal/fault: Fail/Recover,
// epochs, suspensions, dead-sender drops and the message-loss hook.

func TestFailFlushesInboxAndBumpsEpoch(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2, Seed: 1})
	eng.Go("driver", func(p *des.Process) {
		c.Node(0).Send(1, 7, "a")
		c.Node(0).Send(1, 7, "b")
		p.Hold(1) // let deliveries land
		if got := c.Node(1).InboxLen(); got != 2 {
			t.Errorf("inbox = %d before failure, want 2", got)
		}
		c.Node(1).Fail()
		if got := c.Node(1).InboxLen(); got != 0 {
			t.Errorf("inbox = %d after failure, want 0 (flushed)", got)
		}
		if !c.Node(1).Failed() {
			t.Error("node not failed")
		}
		if e := c.Node(1).Epoch(); e != 1 {
			t.Errorf("epoch = %d, want 1", e)
		}
		c.Node(1).Fail() // idempotent
		if e := c.Node(1).Epoch(); e != 1 {
			t.Errorf("epoch = %d after double Fail, want 1", e)
		}
		if lost := c.MessagesLost(); lost != 2 {
			t.Errorf("messages lost = %d, want 2 (flushed inbox)", lost)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestDeliveryToFailedNodeDrops(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2, Seed: 1})
	eng.Go("driver", func(p *des.Process) {
		c.Node(1).Fail()
		c.Node(0).Send(1, 7, "x")
		p.Hold(1)
		if got := c.Node(1).InboxLen(); got != 0 {
			t.Errorf("failed node received a message")
		}
		if lost := c.MessagesLost(); lost != 1 {
			t.Errorf("messages lost = %d, want 1", lost)
		}
		c.Node(1).Recover()
		if c.Node(1).Failed() {
			t.Error("node still failed after Recover")
		}
		c.Node(1).Recover() // idempotent
		c.Node(0).Send(1, 7, "y")
		p.Hold(1)
		if got := c.Node(1).InboxLen(); got != 1 {
			t.Errorf("recovered node did not receive; inbox = %d", got)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestDeadSenderDrops(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2, Seed: 1})
	eng.Go("driver", func(p *des.Process) {
		c.Node(0).Fail()
		sentBefore := c.MessagesSent()
		c.Node(0).Send(1, 7, "x")
		p.Hold(1)
		if c.MessagesSent() != sentBefore {
			t.Error("dead sender's message counted as sent")
		}
		if lost := c.MessagesLost(); lost != 1 {
			t.Errorf("messages lost = %d, want 1", lost)
		}
		if c.Node(1).InboxLen() != 0 {
			t.Error("dead sender's message was delivered")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestSuspendIsMonotone(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 1, Seed: 1})
	n := c.Node(0)
	n.Suspend(5)
	if n.SuspendedUntil() != 5 {
		t.Fatalf("suspended until %v, want 5", n.SuspendedUntil())
	}
	n.Suspend(3) // must not shorten
	if n.SuspendedUntil() != 5 {
		t.Fatalf("suspension shortened to %v", n.SuspendedUntil())
	}
	n.Suspend(9)
	if n.SuspendedUntil() != 9 {
		t.Fatalf("suspension not extended: %v", n.SuspendedUntil())
	}
}

func TestSetDropFn(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 2, Seed: 1})
	drops := 0
	c.SetDropFn(func(m *Message) bool {
		drops++
		return m.Tag == 13 // drop unlucky tags only
	})
	eng.Go("driver", func(p *des.Process) {
		c.Node(0).Send(1, 13, "lost")
		c.Node(0).Send(1, 7, "kept")
		p.Hold(1)
		if got := c.Node(1).InboxLen(); got != 1 {
			t.Errorf("inbox = %d, want 1 (selective drop)", got)
		}
		if drops != 2 {
			t.Errorf("drop fn consulted %d times, want 2", drops)
		}
		if lost := c.MessagesLost(); lost != 1 {
			t.Errorf("messages lost = %d, want 1", lost)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestUntracedFaultPathsDoNotFormat: with no trace hook, a lost
// message — dropped by the loss hook, addressed to a failed node or
// sent by one — and a hang allocate nothing: their trace details are
// formatted only for a hook that reads them.
func TestUntracedFaultPathsDoNotFormat(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 3, Seed: 1})
	c.SetDropFn(func(*Message) bool { return true })
	c.Node(2).Fail()
	const msgs = 100
	until := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < msgs; i++ {
			c.Node(0).Send(1, 1000+i, nil) // the loss hook drops it
			c.Node(0).Send(2, 1000+i, nil) // to a failed node
			c.Node(2).Send(0, 1000+i, nil) // from a failed node
			until++
			c.Node(1).Suspend(until)
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per %d lost messages and hangs, want 0", allocs, 3*msgs)
	}
	if c.MessagesLost() == 0 {
		t.Fatal("test premise: messages should have been lost")
	}
}

// TestFaultTraceEventsExact pins the fault paths' trace lines, which
// are formatted only when a hook is set.
func TestFaultTraceEventsExact(t *testing.T) {
	eng := des.New()
	c := New(eng, Config{Nodes: 3, Seed: 1})
	var got []string
	eng.SetTrace(func(ev des.TraceEvent) {
		got = append(got, ev.Actor+" "+ev.Kind+" "+ev.Detail)
	})
	c.SetDropFn(func(m *Message) bool { return m.Tag == 13 })
	c.Node(1).Suspend(2.5)
	c.Node(2).Fail()
	c.Node(0).Send(1, 13, nil)
	c.Node(0).Send(2, 7, nil)
	c.Node(2).Send(0, 9, nil)
	eng.Run()
	want := []string{
		"worker1 hang until=2.5",
		"worker2 fail ",
		"master send to=1 tag=13",
		"master send to=2 tag=7",
		"worker2 drop dead sender, to=0 tag=9",
		"worker1 loss from=0 tag=13",
		"worker2 drop from=0 tag=7",
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
