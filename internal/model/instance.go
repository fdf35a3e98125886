package model

import "fmt"

// InstanceID identifies one instance (repetition) of a task within the
// hyper-period: the task plus the repetition index K ∈ [0, H/T).
type InstanceID struct {
	Task TaskID
	K    int
}

// String renders the id as "name#k" style "t3#1" using only the numeric
// task id (names live in the TaskSet).
func (iid InstanceID) String() string { return fmt.Sprintf("t%d#%d", int(iid.Task), iid.K) }

// ExpandInstances lists every instance of every task within one
// hyper-period, in (task, k) order. The slice has ts.TotalInstances()
// entries. Valid after Freeze.
func ExpandInstances(ts *TaskSet) []InstanceID {
	out := make([]InstanceID, 0, ts.TotalInstances())
	for i := 0; i < ts.Len(); i++ {
		id := TaskID(i)
		for k := 0; k < ts.Instances(id); k++ {
			out = append(out, InstanceID{Task: id, K: k})
		}
	}
	return out
}

// InstanceStart returns the start time of instance k of a task whose first
// instance starts at s0: strict periodicity pins it to s0 + k·T.
func InstanceStart(s0 Time, period Time, k int) Time {
	return s0 + Time(k)*period
}

// InstanceDeps enumerates the producer instances that must complete before
// instance (dst, k) may start, under the paper's multi-rate semantics:
//
//   - same period: producer instance k feeds consumer instance k;
//   - producer faster (Tc = n·Tp): producer instances k·n .. k·n+n-1 all
//     feed consumer instance k (the consumer needs the n data, fig. 1);
//   - producer slower (Tp = n·Tc): producer instance floor(k/n) feeds
//     consumer instance k (each datum is consumed n times).
func InstanceDeps(ts *TaskSet, dst TaskID, k int) []InstanceID {
	var out []InstanceID
	EachInstanceDep(ts, dst, k, func(src InstanceID) {
		out = append(out, src)
	})
	return out
}

// EachInstanceDep calls fn for every producer instance of (dst, k), in
// the same order InstanceDeps lists them, without allocating. It is the
// hot-path form: scheduling and balancing visit every instance-level
// dependence many times per trial, and a slice per visit dominated the
// allocation profile.
func EachInstanceDep(ts *TaskSet, dst TaskID, k int, fn func(src InstanceID)) {
	tc := ts.tasks[dst].Period
	for _, src := range ts.pred[dst] {
		tp := ts.tasks[src].Period
		switch {
		case tp == tc:
			fn(InstanceID{Task: src, K: k})
		case tc%tp == 0: // producer faster
			n := int(tc / tp)
			for j := 0; j < n; j++ {
				fn(InstanceID{Task: src, K: k*n + j})
			}
		case tp%tc == 0: // producer slower
			n := int(tp / tc)
			fn(InstanceID{Task: src, K: k / n})
		}
	}
}

// EachDepLag calls fn once per task-level dependence src → dst whose
// periods are harmonic, with the largest lag of a producer instance's
// end behind its consumer instance's start, relative to the first
// instances. Under strict periodicity producer instance j ends at
// S_src + j·T_src + E_src and consumer instance k starts at S_dst + k·T_dst,
// so the binding constraint over every instance pair of the edge is
// S_dst ≥ S_src + E_src + lag, where lag is the maximum of
// j·T_src − k·T_dst over the pairs EachInstanceDep links:
//
//   - same period (j = k): lag = 0;
//   - producer faster (T_dst = n·T_src, j = k·n … k·n+n−1): lag = T_dst − T_src;
//   - producer slower (T_src = n·T_dst, j = ⌊k/n⌋): lag = 0, at k = 0.
//
// Pairs that are not harmonic have no instance dependence and are
// skipped, as in EachInstanceDep.
func EachDepLag(ts *TaskSet, dst TaskID, fn func(src TaskID, lag Time)) {
	tc := ts.tasks[dst].Period
	for _, src := range ts.pred[dst] {
		tp := ts.tasks[src].Period
		switch {
		case tp%tc == 0: // same period, or producer slower
			fn(src, 0)
		case tc%tp == 0: // producer faster
			fn(src, tc-tp)
		}
	}
}

// EachInstanceDepData is EachInstanceDep with the datum size of the
// underlying task-level dependence passed alongside each producer
// instance (the simulator's buffer accounting needs it per edge, and a
// per-call scan over all dependences used to dominate its profile).
func EachInstanceDepData(ts *TaskSet, dst TaskID, k int, fn func(src InstanceID, data Mem)) {
	tc := ts.tasks[dst].Period
	for i, src := range ts.pred[dst] {
		data := ts.predData[dst][i]
		tp := ts.tasks[src].Period
		switch {
		case tp == tc:
			fn(InstanceID{Task: src, K: k}, data)
		case tc%tp == 0: // producer faster
			n := int(tc / tp)
			for j := 0; j < n; j++ {
				fn(InstanceID{Task: src, K: k*n + j}, data)
			}
		case tp%tc == 0: // producer slower
			n := int(tp / tc)
			fn(InstanceID{Task: src, K: k / n}, data)
		}
	}
}
