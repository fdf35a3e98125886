package core

import (
	"slices"

	"repro/internal/model"
)

// foldIndex keeps one processor's obstacles folded modulo the
// hyper-period h, sorted by start: the schedule repeats every h, so an
// obstacle [a, e) blocks every image [a+k·h, e+k·h) and only its residue
// matters. One that crosses a multiple of h is stored as two pieces,
// [a mod h, h) and [0, rest); one at least h long covers the ring as
// [0, h). A query walks the pieces as one circular run, adding h at each
// wrap. maxLen bounds the length of every piece ever inserted; it never
// shrinks on removal, since a stale bound only widens the candidate range
// and never hides a piece. Pieces with equal starts are kept in no
// particular order: every caller returns a yes/no answer, a minimum, or
// the smallest conflict-free start, none of which depends on that order.
type foldIndex struct {
	h      model.Time
	starts []model.Time // ascending, in [0, h)
	items  []obstacle   // items[i] is the piece starting at starts[i]
	maxLen model.Time
}

// obstacle is one piece of a folded index: a moved block (task < 0) or a
// member of an unprocessed block, the reservation ref.
type obstacle struct {
	end  model.Time // end of this piece, in (0, h]
	task model.TaskID
	ref  ownerRef
}

// newFoldIndexes returns one empty index per processor, index p with
// room for room[p] pieces. All of them share one backing per slice, each
// window capped at its room, so an index that outgrows it moves to its
// own array instead of overwriting its neighbour.
func newFoldIndexes(h model.Time, room []int) []foldIndex {
	total := 0
	for _, n := range room {
		total += n
	}
	starts := make([]model.Time, 0, total)
	items := make([]obstacle, 0, total)
	out := make([]foldIndex, len(room))
	off := 0
	for p, n := range room {
		out[p] = foldIndex{h: h, starts: starts[off : off : off+n], items: items[off : off : off+n]}
		off += n
	}
	return out
}

// pieces folds [a, e) into at most two pieces of [0, h).
func (x *foldIndex) pieces(a, e model.Time) (p [2][2]model.Time, n int) {
	h := x.h
	if e-a >= h {
		return [2][2]model.Time{{0, h}}, 1
	}
	s := model.Mod(a, h)
	if t := s + e - a; t > h {
		return [2][2]model.Time{{s, h}, {0, t - h}}, 2
	}
	return [2][2]model.Time{{s, s + e - a}}, 1
}

// insert adds the obstacle it occupying [a, e); it.end is set per piece.
// With sorted unset the pieces are appended, and the caller restores the
// order with one sort.Sort after the batch: a bulk build costs a sort,
// not a shift of the slices per obstacle.
func (x *foldIndex) insert(a, e model.Time, it obstacle, sorted bool) {
	p, n := x.pieces(a, e)
	for _, pc := range p[:n] {
		i := len(x.starts)
		if sorted {
			i, _ = slices.BinarySearch(x.starts, pc[0])
		}
		it.end = pc[1]
		x.starts = slices.Insert(x.starts, i, pc[0])
		x.items = slices.Insert(x.items, i, it)
		x.maxLen = max(x.maxLen, pc[1]-pc[0])
	}
}

// Len, Less and Swap order the pieces by start (sort.Interface).
func (x *foldIndex) Len() int           { return len(x.starts) }
func (x *foldIndex) Less(i, j int) bool { return x.starts[i] < x.starts[j] }
func (x *foldIndex) Swap(i, j int) {
	x.starts[i], x.starts[j] = x.starts[j], x.starts[i]
	x.items[i], x.items[j] = x.items[j], x.items[i]
}

// remove deletes every piece of the reservation ref, which must have
// been inserted as [a, e) and not moved since.
func (x *foldIndex) remove(a, e model.Time, ref ownerRef) {
	p, n := x.pieces(a, e)
	for _, pc := range p[:n] {
		i, _ := slices.BinarySearch(x.starts, pc[0])
		for ; i < len(x.starts) && x.starts[i] == pc[0] && x.items[i].ref != ref; i++ {
		}
		if i == len(x.starts) || x.starts[i] != pc[0] {
			panic("core: foldIndex.remove: obstacle not indexed at its start")
		}
		x.starts = slices.Delete(x.starts, i, i+1)
		x.items = slices.Delete(x.items, i, i+1)
	}
}

// from returns the index of the first piece that may reach past the
// residue r ∈ [0, h): every piece starting less than maxLen before r or
// later. No piece of the previous lap reaches past r, since pieces end
// by h.
func (x *foldIndex) from(r model.Time) int {
	i, _ := slices.BinarySearch(x.starts, r-x.maxLen+1)
	return i
}
