package obs

import "math"

// Trace and span ids are minted deterministically when Collector.Forest
// builds the forest: a 64-bit trace id is a splitmix64-style hash of
// (run id, lineage-root item id), shared by every span of an
// evaluation and by its lease-resubmitted clones, so a lineage reads
// as one trace; a span id hashes (trace id, item id, role). Replaying
// the same BMEL event log therefore re-mints the identical ids, without
// the ids ever being recorded or sent.

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
