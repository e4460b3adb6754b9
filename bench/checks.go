package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"borgmoea/internal/core"
	"borgmoea/internal/metrics"
	"borgmoea/internal/problems"
)

// Hypervolume estimation: both the archive and the analytic reference
// front are scored by the same fixed-seed Monte Carlo estimator, so
// hv_norm is a deterministic function of the archive.
const (
	hvSamples   = 40000
	hvSeed      = 0x6876 // "hv"
	refFrontPts = 2000
)

// reference is the analytic Pareto front a workload's archives are
// scored against, with its hypervolume.
type reference struct {
	ref []float64 // hypervolume reference point
	hv  float64
}

// newReference samples the problem's analytic front and scores it —
// part of a rep's set-up.
func newReference(p problems.Problem) (*reference, error) {
	m := p.NumObjs()
	front := problems.ReferenceFront(p.Name(), m, refFrontPts, hvSeed)
	if front == nil {
		return nil, fmt.Errorf("bench: no analytic front for %s", p.Name())
	}
	ref := metrics.RefPointFor(p.Name(), m)
	return &reference{ref: ref, hv: metrics.HypervolumeMCNondominated(front, ref, hvSamples, hvSeed)}, nil
}

// hvNorm is the archive's hypervolume as a share of the reference
// front's.
func (r *reference) hvNorm(a *core.Archive) float64 {
	if a.Size() == 0 {
		return 0
	}
	return metrics.HypervolumeMCNondominated(a.Objectives(), r.ref, hvSamples, hvSeed) / r.hv
}

// checkArchive verifies a final archive: non-empty, every objective
// finite, and the members mutually ε-nondominated.
func checkArchive(a *core.Archive) error {
	return checkFront(a.Objectives(), a.Epsilons())
}

// checkFront is checkArchive on bare objective vectors: no two points
// share an ε-box and no point's box dominates another's. It is an
// independent O(n²) pass over the result, not the archive's own index.
func checkFront(front [][]float64, eps []float64) error {
	if len(front) == 0 {
		return fmt.Errorf("empty archive")
	}
	boxes := make([][]float64, len(front))
	for i, objs := range front {
		if len(objs) != len(eps) {
			return fmt.Errorf("member %d has %d objectives, want %d", i, len(objs), len(eps))
		}
		boxes[i] = make([]float64, len(eps))
		for j, f := range objs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("member %d objective %d is %v", i, j, f)
			}
			boxes[i][j] = math.Floor(f / eps[j])
		}
	}
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			le, ge := true, true // box i ≤ box j, box i ≥ box j, component-wise
			for k := range eps {
				le = le && boxes[i][k] <= boxes[j][k]
				ge = ge && boxes[i][k] >= boxes[j][k]
			}
			if le || ge {
				return fmt.Errorf("members %d and %d are not ε-nondominated (boxes %v, %v)", i, j, boxes[i], boxes[j])
			}
		}
	}
	return nil
}

// digest fingerprints the archives' members, in order, by the bits of
// their variables and objectives, plus any extra values: two runs
// agree on it only if they ended in the identical state.
func digest(archives []*core.Archive, extra []float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	for _, a := range archives {
		for _, s := range a.Members() {
			put(s.Vars)
			put(s.Objs)
		}
	}
	put(extra)
	return hex.EncodeToString(h.Sum(nil)[:8])
}
