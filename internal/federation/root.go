package federation

import (
	"fmt"
	"net"
	"sync"

	"borgmoea/internal/core"
	"borgmoea/internal/wire"
)

// Root is the hierarchical topology's merge point: islands stream
// archive Delta frames up to it, and it folds every member into a live
// ε-archive. The root is monitor-only — nothing flows back down, so it
// cannot perturb the islands' trajectories and the run replays without
// it. The exact merged Result is always recomputed from the final
// island archives (MergeArchives); the root's value is the *live* view
// of the federated front while a long run is still going.
type Root struct {
	addr string
	sink *wire.FrameSink // the islands' delta streams; Run closes it

	mu        sync.Mutex
	arch      *core.Archive
	deltas    uint64
	completed map[uint32]uint64
}

// startRoot binds the root listener and starts merging the delta
// streams islands dial in with.
func startRoot(cfg *Config) (*Root, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("federation: root listen: %w", err)
	}
	r := &Root{
		addr:      ln.Addr().String(),
		arch:      core.NewArchive(cfg.Algorithm.Epsilons, 0),
		completed: make(map[uint32]uint64),
	}
	r.sink = wire.ServeFrames(ln, func(m wire.Message) {
		if d, ok := m.(*wire.Delta); ok {
			r.merge(d)
		}
	})
	return r, nil
}

// Addr returns the root's listen address, which islands dial.
func (r *Root) Addr() string { return r.addr }

// merge folds one delta into the live archive. Decoder-fresh slices
// transfer without copies; re-sent members are deduplicated by the
// ε-archive itself.
func (r *Root) merge(d *wire.Delta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deltas++
	if d.Completed > r.completed[d.Island] {
		r.completed[d.Island] = d.Completed
	}
	for i := range d.Members {
		mb := &d.Members[i]
		r.arch.Add(&core.Solution{
			Vars:     mb.Vars,
			Objs:     mb.Objs,
			Constrs:  mb.Constrs,
			Operator: int(mb.Operator),
		})
	}
}

// Front returns a snapshot of the live merged front's objective
// vectors.
func (r *Root) Front() [][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arch.Objectives()
}

// Size returns the live merged archive's size.
func (r *Root) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arch.Size()
}

// Deltas returns how many delta frames the root has merged.
func (r *Root) Deltas() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deltas
}

// Completed returns the sum of the latest per-island completed counts
// the deltas reported.
func (r *Root) Completed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, c := range r.completed {
		n += c
	}
	return n
}
