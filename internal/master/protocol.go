// Package master is the transport-agnostic core of the asynchronous
// master-slave protocol (Figure 2 of the paper). It owns everything
// the paper's master decides — the lease table and its deadline heap,
// the pending-work queue, worker lifecycle states, duplicate
// suppression, probe-based last-resort dispatch and the stop/drain
// protocol — as a pure, single-threaded state machine: drivers feed it
// protocol Events (worker joined, hello, result arrived, deadline
// tick, connection gone) and execute the Actions it returns (grant an
// item to a worker, stop a worker, run complete).
//
// Three properties follow from that shape:
//
//   - One protocol, many transports. The DES virtual cluster, the
//     goroutine executor and the real-TCP driver in internal/parallel
//     are thin translation layers around the same Core, so the
//     fault-tolerance semantics cannot drift between them.
//   - Determinism. The Core consumes no randomness and never reads a
//     clock; every decision is a function of the event stream and the
//     Config. Recording the events (Log) therefore suffices to replay
//     any run — including a distributed TCP run — off-line (Replay).
//   - Testability. Lease-table invariants (no double-accept, no lost
//     work, drain terminates) are checked by driving the Core with
//     arbitrary event sequences; see FuzzCore.
package master

import (
	"fmt"

	"borgmoea/internal/core"
)

// Tag identifies a master/worker message type. This is the canonical
// protocol vocabulary: the virtual-time drivers use the values as DES
// mailbox tags and internal/wire carries them in its frame header, so
// the two transports cannot drift apart. Welcome/Ping/Pong exist only
// on the TCP transport (handshake and liveness); MPI-style ranks need
// neither.
type Tag uint8

const (
	// TagHello is a worker's (re-)registration: its first message on a
	// TCP connection, or the sign of life a crash-recovered virtual
	// node sends. It tells the master the worker is alive, idle, and
	// that any work it held died with the crash.
	TagHello Tag = iota + 1
	// TagWelcome is the TCP master's handshake reply.
	TagWelcome
	// TagEvaluate grants one evaluation lease to a worker.
	TagEvaluate
	// TagResult returns an evaluated solution.
	TagResult
	// TagStop tells a worker to shut down cleanly.
	TagStop
	// TagPing and TagPong are transport-level heartbeats.
	TagPing
	TagPong
	// TagMigrant carries one ε-archive member from an island master to
	// its ring successor in a federation — the TCP lift of the
	// in-process island migration side channel.
	TagMigrant
)

func (t Tag) String() string {
	switch t {
	case TagHello:
		return "hello"
	case TagWelcome:
		return "welcome"
	case TagEvaluate:
		return "evaluate"
	case TagResult:
		return "result"
	case TagStop:
		return "stop"
	case TagPing:
		return "ping"
	case TagPong:
		return "pong"
	case TagMigrant:
		return "migrant"
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// Item is the master↔worker protocol payload: a solution plus the
// bookkeeping identifiers that make loss detectable. The asynchronous
// core stamps ID (a lease identifier, unique per dispatch, the dedup
// key for late results of expired leases); the synchronous barrier
// master stamps Gen (the generation a scatter belongs to, used to
// recognize stale stragglers). Workers echo the item untouched.
type Item struct {
	ID  uint64
	Gen uint64
	S   *core.Solution
	// ResubmitOf is the lease id this item was cloned from after a
	// presumed loss (0 for fresh offspring). The clone shares its
	// parent's trace id, so a resubmission lineage reads as one trace.
	ResubmitOf uint64
}
