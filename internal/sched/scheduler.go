package sched

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/model"
)

// Scheduler is the rapid greedy heuristic producing the initial
// distributed schedule (the role of the paper's reference [4]): it places
// tasks one by one, in a topological order refined by increasing period,
// at the earliest feasible start time on the best processor.
//
// Processor choice: the candidate giving the smallest start time wins;
// ties prefer a processor already hosting a producer at the same or a
// multiple period (the co-location property §4 of the paper relies on),
// then the least-utilised processor, then the lowest index. Memory
// capacity, when bounded, is respected.
type Scheduler struct {
	TS   *model.TaskSet
	Arch *arch.Architecture
}

// retries bounds the boost-and-restart repair rounds after a failed
// placement.
const retries = 8

// NewScheduler returns the scheduler of ts on a.
func NewScheduler(ts *model.TaskSet, a *arch.Architecture) *Scheduler {
	return &Scheduler{TS: ts, Arch: a}
}

// Run produces a complete schedule, or an error when a task cannot be
// placed (memory exhausted everywhere or no feasible start) or, under
// contended media, its transfers cannot be packed. When a placement
// fails, the scheduler retries from scratch with the failing task
// boosted to the front of the ready set — tasks that are hard to pack
// (long WCETs, tight dependence bounds) go first while the processors
// are still empty. Up to retries rounds; each round resets the previous
// round's schedule and buffers rather than allocating new ones.
func (sc *Scheduler) Run() (*Schedule, error) {
	s, err := NewSchedule(sc.TS, sc.Arch)
	if err != nil {
		return nil, err
	}
	ps := sc.newPass()
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			s.reset()
		}
		failed, err := sc.runOnce(s, ps)
		if err == nil {
			return s, nil
		}
		lastErr = err
		if failed < 0 {
			return nil, err // structural error, retrying cannot help
		}
		// Boost the failing task and its whole ancestry: the task can only
		// enter the ready set once its producers are placed, so they must
		// come early too.
		for _, id := range sc.ancestry(failed) {
			ps.ready.boost[id]++
		}
	}
	return nil, lastErr
}

// ancestry returns the task and all its transitive predecessors.
func (sc *Scheduler) ancestry(id model.TaskID) []model.TaskID {
	seen := map[model.TaskID]bool{id: true}
	stack := []model.TaskID{id}
	out := []model.TaskID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range sc.TS.Predecessors(cur) {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
				out = append(out, p)
			}
		}
	}
	return out
}

// pass holds the buffers of one greedy pass, reused by every repair
// round of a Run.
type pass struct {
	ready   readyHeap
	indeg   []int
	order   []model.TaskID
	util    []model.Time // busy time per hyper-period, per processor
	memUsed []model.Mem
	lbs     []model.Time // dependence bounds, reused per task
}

func (sc *Scheduler) newPass() *pass {
	n := sc.TS.Len()
	ps := &pass{
		ready: readyHeap{
			ids:    make([]model.TaskID, 0, n),
			boost:  make([]int, n),
			period: make([]model.Time, n),
			busy:   make([]model.Time, n),
		},
		indeg:   make([]int, n),
		order:   make([]model.TaskID, 0, n),
		util:    make([]model.Time, sc.Arch.Procs),
		memUsed: make([]model.Mem, sc.Arch.Procs),
		lbs:     make([]model.Time, sc.Arch.Procs),
	}
	for i := 0; i < n; i++ {
		t := sc.TS.Task(model.TaskID(i))
		ps.ready.period[i] = t.Period
		ps.ready.busy[i] = model.Time(sc.TS.Instances(model.TaskID(i))) * t.WCET
	}
	return ps
}

// runOnce is one greedy pass over an empty schedule. On placement
// failure it returns the task that could not be placed.
func (sc *Scheduler) runOnce(s *Schedule, ps *pass) (model.TaskID, error) {
	clear(ps.util)
	clear(ps.memUsed)
	for _, id := range sc.order(ps) {
		t := sc.TS.Task(id)
		busy := ps.ready.busy[id]
		// Per-instance memory accounting (paper: data of distinct
		// instances cannot share storage, figure 1).
		need := t.Mem * model.Mem(sc.TS.Instances(id))

		s.DepLowerBounds(id, ps.lbs)
		best := arch.ProcID(-1)
		var bestStart model.Time
		for p := arch.ProcID(0); int(p) < sc.Arch.Procs; p++ {
			if cap := sc.Arch.MemCapacity; cap > 0 && ps.memUsed[p]+need > cap {
				continue
			}
			// A start beyond the incumbent best cannot win (ties go to the
			// tie-breaks, strictly later starts lose), so bound the search.
			bound := ps.lbs[p] + sc.TS.HyperPeriod()
			if best >= 0 && bestStart < bound {
				bound = bestStart
			}
			start, ok := s.earliestStartIn(id, p, ps.lbs[p], bound)
			if !ok {
				continue
			}
			if best < 0 || sc.better(s, id, p, start, best, bestStart, ps.util) {
				best, bestStart = p, start
			}
		}
		if best < 0 {
			return id, fmt.Errorf("sched: cannot place task %q: no processor has feasible time and memory", t.Name)
		}
		if err := s.Place(id, best, bestStart); err != nil {
			return -1, err
		}
		ps.util[best] += busy
		ps.memUsed[best] += need
	}
	// Only contention can make the transfers fail: in the latency-only
	// model DepLowerBounds already starts every consumer at least C
	// after each remote producer.
	if sc.Arch.ContendedMedia {
		if _, err := s.Comms(); err != nil {
			return -1, err
		}
	}
	return -1, nil
}

// better reports whether candidate (p, start) beats the incumbent
// (bp, bstart) for task id.
func (sc *Scheduler) better(s *Schedule, id model.TaskID, p arch.ProcID, start model.Time,
	bp arch.ProcID, bstart model.Time, util []model.Time) bool {
	if start != bstart {
		return start < bstart
	}
	if cp, cb := sc.hostsProducer(s, id, p), sc.hostsProducer(s, id, bp); cp != cb {
		return cp
	}
	if util[p] != util[bp] {
		return util[p] < util[bp]
	}
	return p < bp
}

func (sc *Scheduler) hostsProducer(s *Schedule, id model.TaskID, p arch.ProcID) bool {
	for _, src := range sc.TS.Predecessors(id) {
		if s.place[src].Proc == p {
			return true
		}
	}
	return false
}

// order returns the placement order: a topological order of the
// dependence DAG in which ready tasks are taken by boost count (repair
// rounds push hard-to-pack tasks first), then increasing period (the fast
// tasks that impose rates come first), then decreasing total busy time
// (longest processing time first within a period class), then ID. The
// result aliases ps.order.
func (sc *Scheduler) order(ps *pass) []model.TaskID {
	indeg := ps.indeg
	for i := range indeg {
		indeg[i] = len(sc.TS.Predecessors(model.TaskID(i)))
	}
	h := &ps.ready
	h.ids = h.ids[:0]
	for i := range indeg {
		if indeg[i] == 0 {
			h.push(model.TaskID(i))
		}
	}
	out := ps.order[:0]
	for len(h.ids) > 0 {
		id := h.pop()
		out = append(out, id)
		for _, s := range sc.TS.Successors(id) {
			indeg[s]--
			if indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	ps.order = out
	return out
}

// readyHeap is a binary min-heap of ready task IDs under the placement
// order's key. The key is a strict total order (ties fall back to the
// ID), so the pop sequence is fully determined.
type readyHeap struct {
	ids          []model.TaskID
	boost        []int
	period, busy []model.Time
}

func (h *readyHeap) less(a, b model.TaskID) bool {
	if h.boost[a] != h.boost[b] {
		return h.boost[a] > h.boost[b]
	}
	if h.period[a] != h.period[b] {
		return h.period[a] < h.period[b]
	}
	if h.busy[a] != h.busy[b] {
		return h.busy[a] > h.busy[b]
	}
	return a < b
}

func (h *readyHeap) push(id model.TaskID) {
	h.ids = append(h.ids, id)
	for i := len(h.ids) - 1; i > 0; {
		up := (i - 1) / 2
		if !h.less(h.ids[i], h.ids[up]) {
			break
		}
		h.ids[i], h.ids[up] = h.ids[up], h.ids[i]
		i = up
	}
}

func (h *readyHeap) pop() model.TaskID {
	ids := h.ids
	top := ids[0]
	last := len(ids) - 1
	ids[0] = ids[last]
	ids = ids[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < last && h.less(ids[l], ids[m]) {
			m = l
		}
		if r := 2*i + 2; r < last && h.less(ids[r], ids[m]) {
			m = r
		}
		if m == i {
			break
		}
		ids[i], ids[m] = ids[m], ids[i]
		i = m
	}
	h.ids = ids
	return top
}
