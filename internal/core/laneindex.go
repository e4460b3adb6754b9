package core

import "math/bits"

// indexRows is the number of level rows a lane index keeps per lane. A
// level is a nondecreasing 4-bit map of a 7-bit signature lane; row l
// marks the members at level <= l, and level 15, every member, is the
// block's present word instead of a row.
const indexRows = 15

// Level maps: the population's lanes are buckets spread over the
// members' objective range, so their top bits are the level; the
// archive's are ε-box coordinates, small integers, so levels keep the
// low ones apart and put every coordinate >= 15 in the top level.
var popLevels, boxLevels = levelMap(func(lane int) int { return lane >> 3 }),
	levelMap(func(lane int) int { return min(lane, indexRows) })

func levelMap(f func(lane int) int) *[sigBuckets]uint8 {
	var t [sigBuckets]uint8
	for lane := range t {
		t[lane] = uint8(f(lane))
	}
	return &t
}

// laneIndex is an orthant index over a slice of lane signatures, kept
// beside it: members are grouped in blocks of 64, and block b holds
// one word marking its members that have a signature, then per lane j
// and level l < indexRows a word with bit t set when member 64b+t sits
// at level <= l on lane j. A member without a signature (plainSig, or
// a slot past the end) has no bit in any word.
//
// Levels are monotone in the lanes, so lanesLE(x, y) implies that
// every level of x is <= the same level of y: the members that could
// dominate a candidate, or be dominated by it, are among those a query
// returns, and a scan that runs its own lane and coordinate tests on
// them alone, in index order, decides exactly what a scan of every
// member decides.
type laneIndex struct {
	level  *[sigBuckets]uint8
	lanes  int      // signature lanes indexed
	stride int      // words per block: 1 + lanes*indexRows
	words  []uint64 // block b is words[b*stride : (b+1)*stride]
	valid  bool     // the words describe the signatures; set by reset and rebuild
}

// reset makes x an empty, valid index of the given lanes and level
// map, keeping its storage.
func (x *laneIndex) reset(lanes int, level *[sigBuckets]uint8) {
	x.level, x.lanes, x.stride = level, lanes, 1+lanes*indexRows
	x.words = x.words[:0]
	x.valid = true
}

// blocks returns how many blocks cover n members.
func blocks(n int) int { return (n + 63) >> 6 }

// room returns how many members x has storage for.
func (x *laneIndex) room() int { return (len(x.words) / x.stride) << 6 }

// grow extends x with empty blocks until it has room for n members.
// Appending keeps the amortized growth of the slices beside it.
func (x *laneIndex) grow(n int) {
	if need := blocks(n) * x.stride; need > len(x.words) {
		x.words = append(x.words, make([]uint64, need-len(x.words))...)
	}
}

// rebuild re-derives x from sigs, with room for at least n members:
// storage that is too small is replaced by one allocation of the exact
// size. Each member sets the bit of its own level, and a prefix OR
// over each lane's rows then makes row l hold every level <= l.
func (x *laneIndex) rebuild(sigs []uint64, n int) {
	need := blocks(max(n, len(sigs))) * x.stride
	if cap(x.words) < need {
		x.words = make([]uint64, need)
	} else {
		x.words = x.words[:need]
		clear(x.words)
	}
	for i, sig := range sigs {
		if sig == plainSig {
			continue
		}
		w := x.words[(i>>6)*x.stride:][:x.stride]
		bit := uint64(1) << (i & 63)
		w[0] |= bit
		for j := range x.lanes {
			if l := int(x.level[sig>>(8*j)&0x7f]); l < indexRows {
				w[1+j*indexRows+l] |= bit
			}
		}
	}
	for b := 0; b < len(x.words); b += x.stride {
		for j := range x.lanes {
			rows := x.words[b+1+j*indexRows:][:indexRows]
			for l := 1; l < indexRows; l++ {
				rows[l] |= rows[l-1]
			}
		}
	}
	x.valid = true
}

// move changes member i's signature in x from from to to; plainSig on
// either side means no signature. A lane's rows differ between the two
// levels exactly from the lower level up to below the higher one, so
// only those rows flip. The rows of every lane are gathered as bits
// first and flipped in one loop: a loop per lane has a trip count that
// mispredicts once per lane.
func (x *laneIndex) move(i int, from, to uint64) {
	w := x.words[(i>>6)*x.stride:][:x.stride]
	bit := uint64(1) << (i & 63)
	if to == plainSig {
		w[0] &^= bit
	} else {
		w[0] |= bit
	}
	var flip [3]uint64 // bit r: row r of the block, counted from w[1], flips
	for j := range x.lanes {
		lf, lt := indexRows, indexRows
		if from != plainSig {
			lf = int(x.level[from>>(8*j)&0x7f])
		}
		if to != plainSig {
			lt = int(x.level[to>>(8*j)&0x7f])
		}
		rows := uint64(1)<<max(lf, lt) - uint64(1)<<min(lf, lt)
		r := j * indexRows
		flip[r>>6] |= rows << (r & 63)
		flip[r>>6+1] |= rows >> (64 - r&63)
	}
	rows := w[1:]
	for k, f := range flip {
		for ; f != 0; f &= f - 1 {
			rows[k<<6|bits.TrailingZeros64(f)] ^= bit
		}
	}
}

// laneQuery is one candidate's question to a laneIndex: which members
// sit at levels all <= its own (they could dominate it) or all >= its
// own (it could dominate them)?
type laneQuery struct {
	words    []uint64
	stride   int
	nup, ndn uint8
	up, dn   [sigLanes]uint8 // block offsets of the rows ANDed / AND-NOTed in
}

// query returns the question for a candidate with signature sig. A
// lane at the top level constrains no member from above, and one at
// level 0 none from below, so neither adds a row.
func (x *laneIndex) query(sig uint64) laneQuery {
	q := laneQuery{words: x.words, stride: x.stride}
	for j := range x.lanes {
		l := int(x.level[sig>>(8*j)&0x7f])
		if l < indexRows {
			q.up[q.nup] = uint8(1 + j*indexRows + l)
			q.nup++
		}
		if l > 0 {
			q.dn[q.ndn] = uint8(j*indexRows + l) // the row of level l-1
			q.ndn++
		}
	}
	return q
}

// mask returns the members of block b the query admits, as bits.
func (q *laneQuery) mask(b int) uint64 {
	w := q.words[b*q.stride:][:q.stride]
	up, dn := w[0], w[0]
	for _, o := range q.up[:q.nup] {
		up &= w[o]
	}
	for _, o := range q.dn[:q.ndn] {
		dn &^= w[o]
	}
	return up | dn
}

// member returns the index of the lowest member in mask, a block b
// mask.
func member(b int, mask uint64) int { return b<<6 | bits.TrailingZeros64(mask) }
