// Package federation shards the serial master the paper's Eq. 4
// bounds: N islands, each a full asynchronous master-slave Borg
// instance running the shared state machine (internal/master) over its
// own worker pool, exchange ε-archive members in a ring over
// internal/wire and optionally report archive deltas up to a merging
// root. The single-master processor ceiling P_UB = T_F/(2·T_C + T_A)
// applies per island, so k islands raise the federation's useful
// processor count toward k·P_UB — the speedup-past-the-bound
// demonstration ROADMAP item 1 calls for.
//
// The migration protocol is deliberately synchronous on migration
// epochs: at its e-th migration boundary (accepted-evaluation count
// n = e·MigrationEvery) an island first sends its epoch-e emigrant to
// its ring successor, then — unless the budget completed on that very
// accept — blocks until the epoch-e migrant from its predecessor
// arrives, and folds it in as an EvMigrant event. Send-before-wait
// keeps the ring deadlock-free (every island can always produce its
// epoch-e emigrant without waiting), and pinning the injection to a
// fixed point in the accept stream makes the event logs canonical:
// the DES islands driver (parallel.RunIslands) and the TCP federation
// both run Migration, the protocol's one implementation, so they
// produce byte-identical logical event sequences for the same seed,
// and any federated run replays offline — BMEL logs plus migrant
// sidecar logs — to the identical merged Result.
package federation

import (
	"fmt"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/wire"
)

// IslandAlgSeed returns island isl's algorithm seed — the golden-ratio
// stride RunIslands has always used, shared here so the DES and TCP
// transports instantiate identical Borg streams.
func IslandAlgSeed(seed uint64, isl int) uint64 {
	return seed + uint64(isl)*0x9e3779b97f4a7c15
}

// Migration is one island's side of the migration-epoch protocol,
// written once for both transports. At each accept the transport asks
// Boundary whether an epoch opens; if so it sends the frame Emigrant
// returns to its ring successor, calls Await with a next that blocks
// for the predecessor's next frame, and handles an EvMigrant for the
// migrant Await returns, under which Fold (the core's OnMigrant hook)
// injects it.
type Migration struct {
	isl, pred   int
	every       uint64 // 0: migration off
	epoch, sent uint64 // last epoch opened, emigrants framed
	b           *core.Borg
	alg         *master.Bracket
	rng         *rng.Source
	log         *MigrantLog
	meter       *obs.Counter
	frame       []byte                   // emigrant frame scratch
	early       map[uint64]*wire.Migrant // frames of epochs not yet awaited
	staged      *core.Solution           // the awaited migrant, until Fold
}

// NewMigration returns island isl's side of a ring of islands that
// exchanges every `every` accepts (0, or one island, disables it). alg
// is the bracket around b that charges T_A; log and meter (both
// nil-safe) record and count the emigrants. Emigrants are drawn from a
// stream split from every other one, so both transports draw it at the
// same points (one Intn per epoch) and select the same member.
func NewMigration(seed uint64, isl, islands int, every uint64, b *core.Borg, alg *master.Bracket, log *MigrantLog, meter *obs.Counter) *Migration {
	if islands <= 1 {
		every = 0
	}
	return &Migration{isl: isl, pred: (isl - 1 + islands) % islands, every: every, b: b, alg: alg,
		rng: rng.New(seed ^ (uint64(isl+1) * 0x6d696772)), // "migr"
		log: log, meter: meter, early: make(map[uint64]*wire.Migrant)}
}

// Boundary reports whether accept count n opens a migration epoch, and
// which. Epochs only move forward, so a count seen twice opens one.
func (m *Migration) Boundary(n uint64) (epoch uint64, ok bool) {
	if m.every == 0 || n == 0 || n%m.every != 0 || n/m.every <= m.epoch {
		return 0, false
	}
	m.epoch = n / m.every
	return m.epoch, true
}

// Emigrant selects the open epoch's emigrant — a random ε-archive
// member, which after any accept exists — stamps it with the sender's
// trace context, records and counts it, and returns its frame, scratch
// the next epoch overwrites. A failed send ends the run, so the record
// stands.
func (m *Migration) Emigrant(trace obs.SpanContext) []byte {
	arch := m.b.Archive()
	s := arch.Members()[m.rng.Intn(arch.Size())]
	// The frame is the copy: mg references the member's live slices.
	mg := &wire.Migrant{Island: uint32(m.isl), Epoch: m.epoch, SolID: s.ID, Operator: int32(s.Operator),
		Vars: s.Vars, Objs: s.Objs, Constrs: s.Constrs, Trace: trace}
	m.frame = wire.AppendFrame(m.frame[:0], mg)
	m.log.Record(mg)
	m.sent++
	m.meter.Inc()
	return m.frame
}

// Await ends the open epoch once its emigrant is sent. Unless done —
// the budget completed on this very accept — it takes the
// predecessor's migrant of the epoch from the frames held early or
// else from next, holding later epochs' frames for their turn, and
// stages it for Fold. It returns that migrant (nil when done); an
// error from next fails the epoch.
func (m *Migration) Await(done bool, next func() (*wire.Migrant, error)) (*wire.Migrant, error) {
	if done {
		return nil, nil
	}
	in, ok := m.early[m.epoch]
	delete(m.early, m.epoch)
	for !ok {
		var err error
		if in, err = next(); err != nil {
			return nil, fmt.Errorf("migration epoch %d: no migrant from island %d: %w", m.epoch, m.pred, err)
		}
		if ok = in.Epoch == m.epoch; !ok {
			m.Hold(in)
		}
	}
	m.staged = migrantSolution(in)
	return in, nil
}

// Hold keeps a frame that arrived outside Await — the predecessor runs
// ahead — for its epoch.
func (m *Migration) Hold(in *wire.Migrant) { m.early[in.Epoch] = in }

// Fold injects the migrant Await staged inside its own critical
// section: T_A charged, but no function evaluation.
func (m *Migration) Fold(source int, epoch uint64) {
	if m.staged != nil {
		m.alg.Enter()
		m.b.InjectEvaluated(m.staged)
		m.alg.Leave(false)
		m.staged = nil
	}
}

// Sent is the number of emigrants the island has sent.
func (m *Migration) Sent() uint64 { return m.sent }

// migrantSolution converts a decoded Migrant frame into an evaluated
// solution ready for Borg.InjectEvaluated. The frame's slices were
// freshly allocated by the decoder, so they transfer without copies.
func migrantSolution(m *wire.Migrant) *core.Solution {
	return &core.Solution{
		Vars:     m.Vars,
		Objs:     m.Objs,
		Constrs:  m.Constrs,
		Operator: int(m.Operator),
		ID:       m.SolID,
	}
}

// MergeArchives returns the ε-nondominated union of the island
// archives, folded in island order — the canonical merged Result every
// transport (and Replay) computes identically. It shares the islands'
// members, so it stays valid only while the islands accept no more.
func MergeArchives(epsilons []float64, islands []*core.Borg) *core.Archive {
	merged := core.NewArchive(epsilons, 0)
	for _, b := range islands {
		for _, m := range b.Archive().Members() {
			merged.Add(m)
		}
	}
	return merged
}
