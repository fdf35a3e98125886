// Package model defines the task, dependence and strict-periodicity model
// used throughout the library.
//
// A task a has a period Ta, a worst-case execution time Ea, and a required
// memory amount ma. Strict periodicity means every pair of successive
// instances of a is separated by exactly Ta: s(a, k+1) - s(a, k) = Ta for
// all k, where s(a, k) is the start time of the k-th instance. Dependences
// form a DAG: a ≺ b means b cannot start before a completes (plus a
// communication delay when a and b run on different processors).
//
// All times and memory amounts are expressed in abstract integer units, as
// in the paper.
package model

import (
	"fmt"
)

// Time is a point or duration on the discrete time axis (abstract units).
type Time int64

// Mem is an amount of memory (abstract units).
type Mem int64

// TaskID identifies a task inside a TaskSet. IDs are dense indices assigned
// by the TaskSet in insertion order.
type TaskID int

// Task is one strictly periodic, non-preemptive task.
type Task struct {
	ID     TaskID
	Name   string
	Period Time // Ta: strict period, > 0
	WCET   Time // Ea: worst-case execution time, > 0, ≤ Period
	Mem    Mem  // ma: required memory amount, ≥ 0
}

// Dependence is a directed edge Src ≺ Dst: Dst consumes data produced by
// Src. Data is the size of one produced datum; it scales the buffer demand
// in multi-rate transfers (fig. 1 of the paper). A zero Data means one
// abstract unit.
type Dependence struct {
	Src, Dst TaskID
	Data     Mem
}

// TaskSet is an immutable-after-build collection of tasks and dependences.
// Build one with NewTaskSet, AddTask and AddDependence, then call Freeze.
type TaskSet struct {
	tasks  []Task
	byName map[string]TaskID
	deps   []Dependence
	// adjacency, filled by Freeze; predData[t][i] is the datum size of
	// the edge pred[t][i] → t, so per-edge lookups in instance-level
	// sweeps are O(1) instead of a scan over all dependences.
	succ     [][]TaskID
	pred     [][]TaskID
	predData [][]Mem
	frozen   bool
	hyper    Time

	// instance indexing, filled by Freeze: instOff[t] is the position of
	// instance (t, 0) in the dense task-major instance order, totalInst
	// the number of instances within one hyper-period.
	instOff   []int
	totalInst int
}

// NewTaskSet returns an empty task set.
func NewTaskSet() *TaskSet {
	return &TaskSet{byName: make(map[string]TaskID)}
}

// AddTask registers a task and returns its ID. Name must be unique and
// non-empty; period and WCET must be positive; WCET must not exceed the
// period (a non-preemptive strictly periodic task cannot run longer than
// its period); memory must be non-negative.
func (ts *TaskSet) AddTask(name string, period, wcet Time, mem Mem) (TaskID, error) {
	if ts.frozen {
		return 0, fmt.Errorf("model: AddTask %q: task set is frozen", name)
	}
	if name == "" {
		return 0, fmt.Errorf("model: AddTask: empty name")
	}
	if _, dup := ts.byName[name]; dup {
		return 0, fmt.Errorf("model: AddTask %q: duplicate name", name)
	}
	if period <= 0 {
		return 0, fmt.Errorf("model: AddTask %q: period %d must be > 0", name, period)
	}
	if wcet <= 0 {
		return 0, fmt.Errorf("model: AddTask %q: WCET %d must be > 0", name, wcet)
	}
	if wcet > period {
		return 0, fmt.Errorf("model: AddTask %q: WCET %d exceeds period %d", name, wcet, period)
	}
	if mem < 0 {
		return 0, fmt.Errorf("model: AddTask %q: memory %d must be ≥ 0", name, mem)
	}
	id := TaskID(len(ts.tasks))
	ts.tasks = append(ts.tasks, Task{ID: id, Name: name, Period: period, WCET: wcet, Mem: mem})
	ts.byName[name] = id
	return id, nil
}

// MustAddTask is AddTask that panics on error; intended for tests and
// hand-built examples.
func (ts *TaskSet) MustAddTask(name string, period, wcet Time, mem Mem) TaskID {
	id, err := ts.AddTask(name, period, wcet, mem)
	if err != nil {
		panic(err)
	}
	return id
}

// AddDependence registers src ≺ dst with a datum size. Periods of the two
// tasks must be harmonically related (one divides the other), the relation
// the paper's multi-rate transfer semantics is defined for.
func (ts *TaskSet) AddDependence(src, dst TaskID, data Mem) error {
	if ts.frozen {
		return fmt.Errorf("model: AddDependence: task set is frozen")
	}
	if err := ts.checkID(src); err != nil {
		return err
	}
	if err := ts.checkID(dst); err != nil {
		return err
	}
	if src == dst {
		return fmt.Errorf("model: AddDependence: self-dependence on %q", ts.tasks[src].Name)
	}
	if data < 0 {
		return fmt.Errorf("model: AddDependence: negative data size %d", data)
	}
	ps, pd := ts.tasks[src].Period, ts.tasks[dst].Period
	if ps%pd != 0 && pd%ps != 0 {
		return fmt.Errorf("model: AddDependence %q→%q: periods %d and %d are not harmonic",
			ts.tasks[src].Name, ts.tasks[dst].Name, ps, pd)
	}
	if data == 0 {
		data = 1
	}
	ts.deps = append(ts.deps, Dependence{Src: src, Dst: dst, Data: data})
	return nil
}

// MustAddDependence is AddDependence that panics on error.
func (ts *TaskSet) MustAddDependence(src, dst TaskID, data Mem) {
	if err := ts.AddDependence(src, dst, data); err != nil {
		panic(err)
	}
}

func (ts *TaskSet) checkID(id TaskID) error {
	if id < 0 || int(id) >= len(ts.tasks) {
		return fmt.Errorf("model: unknown task id %d", id)
	}
	return nil
}

// Freeze validates the set (acyclicity, harmonic periods), builds adjacency
// and the hyper-period, and makes the set immutable.
func (ts *TaskSet) Freeze() error {
	if ts.frozen {
		return nil
	}
	if len(ts.tasks) == 0 {
		return fmt.Errorf("model: Freeze: empty task set")
	}
	n := len(ts.tasks)
	ts.succ = make([][]TaskID, n)
	ts.pred = make([][]TaskID, n)
	seen := make(map[[2]TaskID]bool, len(ts.deps))
	ts.predData = make([][]Mem, n)
	for _, d := range ts.deps {
		key := [2]TaskID{d.Src, d.Dst}
		if seen[key] {
			return fmt.Errorf("model: Freeze: duplicate dependence %q→%q",
				ts.tasks[d.Src].Name, ts.tasks[d.Dst].Name)
		}
		seen[key] = true
		ts.succ[d.Src] = append(ts.succ[d.Src], d.Dst)
		ts.pred[d.Dst] = append(ts.pred[d.Dst], d.Src)
		// Positional append keeps predData aligned with pred by
		// construction, whatever the edge multiset looks like.
		ts.predData[d.Dst] = append(ts.predData[d.Dst], d.Data)
	}
	if _, err := ts.topoOrder(); err != nil {
		return err
	}
	h := Time(1)
	for _, t := range ts.tasks {
		h = LCM(h, t.Period)
		if h <= 0 {
			return fmt.Errorf("model: Freeze: hyper-period overflow")
		}
	}
	ts.hyper = h
	ts.instOff = make([]int, n)
	for i, t := range ts.tasks {
		ts.instOff[i] = ts.totalInst
		ts.totalInst += int(h / t.Period)
	}
	ts.frozen = true
	return nil
}

// MustFreeze is Freeze that panics on error.
func (ts *TaskSet) MustFreeze() *TaskSet {
	if err := ts.Freeze(); err != nil {
		panic(err)
	}
	return ts
}

// Frozen reports whether Freeze has completed.
func (ts *TaskSet) Frozen() bool { return ts.frozen }

// Len returns the number of tasks.
func (ts *TaskSet) Len() int { return len(ts.tasks) }

// Task returns the task with the given ID. The ID must be valid.
func (ts *TaskSet) Task(id TaskID) Task { return ts.tasks[id] }

// ByName looks a task up by name.
func (ts *TaskSet) ByName(name string) (Task, bool) {
	id, ok := ts.byName[name]
	if !ok {
		return Task{}, false
	}
	return ts.tasks[id], true
}

// Tasks returns a copy of all tasks in ID order.
func (ts *TaskSet) Tasks() []Task {
	out := make([]Task, len(ts.tasks))
	copy(out, ts.tasks)
	return out
}

// NumDependences returns the number of dependences.
func (ts *TaskSet) NumDependences() int { return len(ts.deps) }

// Dependence returns the i-th dependence in insertion order, for
// 0 ≤ i < NumDependences(): the walk over every edge without the copy
// Dependences makes.
func (ts *TaskSet) Dependence(i int) Dependence { return ts.deps[i] }

// Dependences returns a copy of all dependences.
func (ts *TaskSet) Dependences() []Dependence {
	out := make([]Dependence, len(ts.deps))
	copy(out, ts.deps)
	return out
}

// Successors returns the IDs of tasks that depend on id.
func (ts *TaskSet) Successors(id TaskID) []TaskID { return ts.succ[id] }

// Predecessors returns the IDs of tasks id depends on.
func (ts *TaskSet) Predecessors(id TaskID) []TaskID { return ts.pred[id] }

// DependenceData returns the datum size attached to the edge src→dst and
// whether the edge exists.
func (ts *TaskSet) DependenceData(src, dst TaskID) (Mem, bool) {
	for _, d := range ts.deps {
		if d.Src == src && d.Dst == dst {
			return d.Data, true
		}
	}
	return 0, false
}

// HyperPeriod returns the LCM of all task periods. Valid after Freeze.
func (ts *TaskSet) HyperPeriod() Time { return ts.hyper }

// Instances returns the number of instances of the task within one
// hyper-period: H / Period. Valid after Freeze.
func (ts *TaskSet) Instances(id TaskID) int {
	return int(ts.hyper / ts.tasks[id].Period)
}

// TotalInstances returns the total number of task instances within one
// hyper-period, which is the size of the expanded scheduling problem.
// Valid after Freeze.
func (ts *TaskSet) TotalInstances() int { return ts.totalInst }

// InstanceIndex returns the position of an instance in the dense
// task-major instance order: instances of task 0 first (k ascending),
// then task 1, and so on. The inverse of the first TotalInstances()
// positions. Valid after Freeze.
func (ts *TaskSet) InstanceIndex(iid InstanceID) int {
	return ts.instOff[iid.Task] + iid.K
}

// TotalMem returns the sum of memory amounts of all tasks.
func (ts *TaskSet) TotalMem() Mem {
	var m Mem
	for _, t := range ts.tasks {
		m += t.Mem
	}
	return m
}

// Utilization returns Σ Ei/Ti, the processor utilisation demanded by the
// set (a lower bound on the number of processors needed is ceil of this).
func (ts *TaskSet) Utilization() float64 {
	u := 0.0
	for _, t := range ts.tasks {
		u += float64(t.WCET) / float64(t.Period)
	}
	return u
}

// topoOrder returns task IDs in a topological order of the dependence DAG,
// or an error naming a task on a cycle.
func (ts *TaskSet) topoOrder() ([]TaskID, error) {
	n := len(ts.tasks)
	indeg := make([]int, n)
	for _, d := range ts.deps {
		indeg[d.Dst]++
	}
	// Deterministic order: smallest ID first among ready tasks, popped
	// from a min-heap of the ready IDs.
	ready := make(idHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range ts.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("model: dependence cycle through task %q", ts.tasks[i].Name)
			}
		}
	}
	return order, nil
}

// idHeap is a binary min-heap of task IDs.
type idHeap []TaskID

func (h *idHeap) push(id TaskID) {
	*h = append(*h, id)
	ids := *h
	for i := len(ids) - 1; i > 0; {
		up := (i - 1) / 2
		if ids[up] <= ids[i] {
			break
		}
		ids[i], ids[up] = ids[up], ids[i]
		i = up
	}
}

func (h *idHeap) pop() TaskID {
	ids := *h
	top := ids[0]
	last := len(ids) - 1
	ids[0] = ids[last]
	ids = ids[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < last && ids[l] < ids[m] {
			m = l
		}
		if r := 2*i + 2; r < last && ids[r] < ids[m] {
			m = r
		}
		if m == i {
			break
		}
		ids[i], ids[m] = ids[m], ids[i]
		i = m
	}
	*h = ids
	return top
}

// TopoOrder returns a deterministic topological order. Valid after Freeze
// (Freeze guarantees acyclicity).
func (ts *TaskSet) TopoOrder() []TaskID {
	order, err := ts.topoOrder()
	if err != nil {
		panic(err) // unreachable on a frozen set
	}
	return order
}
