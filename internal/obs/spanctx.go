package obs

import "math"

// SpanContext identifies one evaluation's trace as it crosses process
// boundaries: a 64-bit trace id shared by every span of the
// evaluation (and by lease-resubmitted clones, which inherit their
// parent's id so a lineage reads as one trace), a span id naming the
// position inside the trace, and a flags byte carrying the head-based
// sampling decision. The zero value is "not traced"; wire frames only
// grow the trace header when the context is Valid.
//
// Ids are minted deterministically — a splitmix64-style hash of
// (run id, lineage-root item id) — so an offline replay of the same
// BMEL event log re-mints the identical context for every evaluation,
// without the ids ever being recorded.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Flags   uint8
}

// FlagSampled marks a trace selected by head-based sampling. Spans of
// unsampled traces are still collected (attribution wants every
// evaluation) but only sampled, expired, or straggler-forced traces
// are emitted by Collector.Forest.
const FlagSampled uint8 = 1 << 0

// Valid reports whether the context names a trace. Invalid contexts
// encode as version-1 wire frames with no trace header.
func (c SpanContext) Valid() bool { return c.TraceID != 0 }

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash used for trace-id minting and sampling decisions.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MintTraceID derives the trace id for key under runID. Trace id 0
// means "untraced", so the hash is nudged away from zero.
func MintTraceID(runID, key uint64) uint64 {
	id := Mix64(runID ^ Mix64(key))
	if id == 0 {
		id = 1
	}
	return id
}

// Span-role salts for mintSpanID: every span of a trace gets a
// distinct, deterministic id from (trace id, item id, role).
const (
	roleEval uint64 = iota + 1
	roleTCSend
	roleTF
	roleWait
	roleTCRecv
	roleTA
	roleMigrant
	roleEmigrant
)

func mintSpanID(traceID, item, role uint64) uint64 {
	id := Mix64(traceID ^ Mix64(item<<8|role))
	if id == 0 {
		id = 1
	}
	return id
}

// SampleHead is the deterministic head-based sampling decision: a
// trace is sampled iff the hash of its id falls below rate. The same
// trace id always decides the same way, on every process and on
// replay.
func SampleHead(traceID uint64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return float64(Mix64(traceID^0xa0761d6478bd642f)) < rate*float64(math.MaxUint64)
}
