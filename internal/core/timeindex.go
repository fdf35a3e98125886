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
// every caller either returns a yes/no answer or sorts what it collects.
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

// window returns the index range [i, j) of the obstacles that may
// intersect [lo, hi): those starting before hi and less than maxLen
// before lo. Callers apply their exact overlap test to each of them.
func (x *timeIndex[T]) window(lo, hi model.Time) (i, j int) {
	if len(x.starts) == 0 || hi <= x.starts[0] || lo >= x.maxEnd {
		return 0, 0
	}
	i, _ = slices.BinarySearch(x.starts, lo-x.maxLen+1)
	j, _ = slices.BinarySearch(x.starts[i:], hi)
	return i, i + j
}
