package core

import (
	"math"
	"slices"

	"repro/internal/model"
)

// timeIndex keeps one processor's obstacles sorted by start time, so a
// window query binary-searches to the first obstacle that can reach the
// window instead of scanning them all. maxLen and maxEnd bound the length
// and end of every obstacle ever inserted; they never shrink on removal,
// since a stale bound only widens the candidate range and never hides an
// obstacle. Obstacles with equal starts are kept in no particular order:
// every caller returns a yes/no answer, a minimum, or the smallest
// conflict-free start, none of which depends on that order.
type timeIndex[T comparable] struct {
	starts []model.Time // ascending
	items  []T          // items[i] is the obstacle starting at starts[i]
	maxLen model.Time
	maxEnd model.Time
}

func newTimeIndex[T comparable](capacity int) timeIndex[T] {
	return timeIndex[T]{
		starts: make([]model.Time, 0, capacity),
		items:  make([]T, 0, capacity),
		maxEnd: math.MinInt64,
	}
}

// insert adds the obstacle it occupying [start, end).
func (x *timeIndex[T]) insert(start, end model.Time, it T) {
	i, _ := slices.BinarySearch(x.starts, start)
	x.starts = slices.Insert(x.starts, i, start)
	x.items = slices.Insert(x.items, i, it)
	if l := end - start; l > x.maxLen {
		x.maxLen = l
	}
	if end > x.maxEnd {
		x.maxEnd = end
	}
}

// remove deletes the obstacle it, which must have been inserted at start
// and not moved since.
func (x *timeIndex[T]) remove(start model.Time, it T) {
	i, _ := slices.BinarySearch(x.starts, start)
	for ; i < len(x.starts) && x.starts[i] == start; i++ {
		if x.items[i] == it {
			x.starts = slices.Delete(x.starts, i, i+1)
			x.items = slices.Delete(x.items, i, i+1)
			return
		}
	}
	panic("core: timeIndex.remove: obstacle not indexed at its start")
}

// from returns the index of the first obstacle that may intersect
// [lo, ∞): every obstacle starting less than maxLen before lo or later.
// Callers walk forward from it, stop at the first start at or past the
// upper end of their window, and apply their exact overlap test to each
// obstacle on the way.
func (x *timeIndex[T]) from(lo model.Time) int {
	if lo >= x.maxEnd {
		return len(x.starts)
	}
	i, _ := slices.BinarySearch(x.starts, lo-x.maxLen+1)
	return i
}
