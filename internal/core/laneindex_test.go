package core

import (
	"fmt"
	"testing"

	"borgmoea/internal/rng"
)

// mismatch returns "" if x holds exactly the words an index rebuilt
// from sigs with the same lanes, levels and room would, and otherwise
// where the first difference lies.
func (x *laneIndex) mismatch(sigs []uint64) string {
	var fresh laneIndex
	fresh.reset(x.lanes, x.level)
	fresh.rebuild(sigs, x.room())
	if len(fresh.words) != len(x.words) {
		return fmt.Sprintf("%d words, rebuilt from %d signatures %d", len(x.words), len(sigs), len(fresh.words))
	}
	for k, w := range x.words {
		if w != fresh.words[k] {
			return fmt.Sprintf("block %d word %d is %#x, rebuilt %#x", k/x.stride, k%x.stride, w, fresh.words[k])
		}
	}
	return ""
}

// randomSig draws a signature of the given lanes whose lanes cluster
// around a few values per lane (so equal levels and lanesLE pairs both
// occur), or plainSig one time in eight.
func randomSig(r *rng.Source, lanes int) uint64 {
	if r.Intn(8) == 0 {
		return plainSig
	}
	var sig uint64
	for j := range lanes {
		lane := []int{0, 3, 7, 8, 14, 15, 16, 60, 120, 127}[r.Intn(10)] + r.Intn(3)
		sig |= uint64(min(lane, sigBuckets-1)) << (8 * j)
	}
	return sig
}

// TestLaneIndexAdmitsEveryLanesLEPair drives an index through appends,
// overwrites and swap-removes under both level maps and checks after
// each that it equals one rebuilt from the signatures, and that every
// query's mask holds each member whose signature is lanesLE the query's
// in either direction, and no member without a signature.
func TestLaneIndexAdmitsEveryLanesLEPair(t *testing.T) {
	for _, level := range []*[sigBuckets]uint8{popLevels, boxLevels} {
		for lanes := 1; lanes <= sigLanes; lanes++ {
			r := rng.New(uint64(lanes))
			var x laneIndex
			x.reset(lanes, level)
			var sigs []uint64
			for step := 0; step < 600; step++ {
				switch op := r.Intn(4); {
				case op == 0 && len(sigs) > 0:
					i, last := r.Intn(len(sigs)), len(sigs)-1
					x.move(i, sigs[i], sigs[last])
					x.move(last, sigs[last], plainSig)
					sigs[i] = sigs[last]
					sigs = sigs[:last]
				case op == 1 && len(sigs) > 0:
					i, sig := r.Intn(len(sigs)), randomSig(r, lanes)
					x.move(i, sigs[i], sig)
					sigs[i] = sig
				default:
					sig := randomSig(r, lanes)
					sigs = append(sigs, sig)
					x.grow(len(sigs))
					x.move(len(sigs)-1, plainSig, sig)
				}
				if msg := x.mismatch(sigs); msg != "" {
					t.Fatalf("lanes %d step %d: %s", lanes, step, msg)
				}
				cand := randomSig(r, lanes)
				if cand == plainSig {
					continue
				}
				q := x.query(cand)
				for i, sig := range sigs {
					in := q.mask(i>>6)>>(i&63)&1 == 1
					want := sig != plainSig && (lanesLE(sig, cand) || lanesLE(cand, sig))
					if want && !in || sig == plainSig && in {
						t.Fatalf("lanes %d step %d: member %d (%#x) in mask of %#x: %v",
							lanes, step, i, sig, cand, in)
					}
				}
			}
		}
	}
}
