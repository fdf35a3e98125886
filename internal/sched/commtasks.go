package sched

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/model"
)

// commtasks.go materialises the paper's explicit communication tasks
// (§3.1): "when a task is scheduled onto a processor P, if there is a
// dependence between this task and n other tasks already scheduled onto
// other processors, n new receive tasks must be created and scheduled
// before this task ... a send task must be created and scheduled onto
// the processor where the producer task is scheduled."
//
// The base model treats the communication time C as pure end-to-end
// latency. Materialisation makes the CPU side explicit: each transfer
// spawns a send task on the producer's processor (right after the
// producer instance completes) and a receive task on the consumer's
// processor (completing exactly when the consumer starts), each costing
// `overhead` processor time units. With overhead = 0 the tasks are pure
// bookkeeping; with overhead > 0 they occupy the processors and
// materialisation fails when the schedule has no room for them — a
// stricter, more hardware-faithful admission test.

// CommTaskKind distinguishes send from receive tasks.
type CommTaskKind int

const (
	// SendTask runs on the producer's processor.
	SendTask CommTaskKind = iota
	// RecvTask runs on the consumer's processor.
	RecvTask
)

// String names the kind.
func (k CommTaskKind) String() string {
	if k == SendTask {
		return "send"
	}
	return "recv"
}

// CommTask is one materialised send or receive task.
type CommTask struct {
	Kind     CommTaskKind
	Proc     arch.ProcID
	Start    model.Time
	Dur      model.Time
	Transfer Comm // the inter-processor transfer this task serves
}

// End returns the completion time of the communication task.
func (ct CommTask) End() model.Time { return ct.Start + ct.Dur }

// MaterializeCommTasks expands every transfer of the schedule (Comms)
// into its send/receive task pair with the given per-task processor
// overhead. It returns an error when the transfers cannot be derived,
// or when overhead > 0 and some communication task would overlap a task
// instance or another communication task on its processor — the schedule
// then has no room for explicit communication handling and needs more
// slack.
func MaterializeCommTasks(s *Schedule, overhead model.Time) ([]CommTask, error) {
	if overhead < 0 {
		return nil, fmt.Errorf("sched: negative communication overhead %d", overhead)
	}
	if overhead > s.Arch.CommTime {
		return nil, fmt.Errorf("sched: overhead %d exceeds the end-to-end communication time %d",
			overhead, s.Arch.CommTime)
	}
	cms, err := s.Comms()
	if err != nil {
		return nil, err
	}
	var out []CommTask
	for _, cm := range cms {
		srcProc := s.Placement(cm.Src.Task).Proc
		dstProc := s.Placement(cm.Dst.Task).Proc
		out = append(out,
			CommTask{
				Kind:     SendTask,
				Proc:     srcProc,
				Start:    s.InstanceEnd(cm.Src.Task, cm.Src.K),
				Dur:      overhead,
				Transfer: cm,
			},
			CommTask{
				Kind:     RecvTask,
				Proc:     dstProc,
				Start:    s.InstanceStart(cm.Dst.Task, cm.Dst.K) - overhead,
				Dur:      overhead,
				Transfer: cm,
			},
		)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Kind < b.Kind
	})

	if overhead == 0 {
		return out, nil
	}
	if err := checkCommTaskRoom(s, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkCommTaskRoom verifies that every communication task fits on its
// processor without overlapping task instances or other communication
// tasks in steady state (foldConflicts), and reports the first
// collision.
func checkCommTaskRoom(s *Schedule, cts []CommTask) error {
	for _, ct := range cts {
		if ct.Start < 0 {
			return fmt.Errorf("sched: %s task for %s→%s would start at %d (before time zero)",
				ct.Kind, s.instName(ct.Transfer.Src), s.instName(ct.Transfer.Dst), ct.Start)
		}
	}
	h := s.TS.HyperPeriod()
	var occs []occupancy
	var iids []model.InstanceID
	var err error
	for p := arch.ProcID(0); int(p) < s.Arch.Procs && err == nil; p++ {
		// ids below len(iids) are instances, the rest index cts.
		occs, iids = occs[:0], iids[:0]
		for _, id := range s.TasksOn(p) {
			for k := 0; k < s.TS.Instances(id); k++ {
				occs = append(occs, occupancy{s.InstanceStart(id, k), s.TS.Task(id).WCET, len(iids)})
				iids = append(iids, model.InstanceID{Task: id, K: k})
			}
		}
		n := len(iids)
		for i, ct := range cts {
			if ct.Proc == p {
				occs = append(occs, occupancy{ct.Start, ct.Dur, n + i})
			}
		}
		foldConflicts(h, occs, func(a, b int) {
			if err != nil || b < n {
				return // already failed, or two instances (Validate's business)
			}
			ct := cts[b-n]
			if a < n {
				err = fmt.Errorf("sched: %s task for %s→%s [%d,%d) overlaps %s on %s",
					ct.Kind, s.instName(ct.Transfer.Src), s.instName(ct.Transfer.Dst),
					ct.Start, ct.End(), s.instName(iids[a]), s.Arch.ProcName(p))
				return
			}
			o := cts[a-n]
			err = fmt.Errorf("sched: %s task [%d,%d) and %s task [%d,%d) overlap on %s",
				o.Kind, o.Start, o.End(), ct.Kind, ct.Start, ct.End(), s.Arch.ProcName(p))
		})
	}
	return err
}

// CommOverheadVector sums materialised communication-task time per
// processor — the CPU cost of communication the balancer can reduce by
// co-locating dependent blocks.
func CommOverheadVector(procs int, cts []CommTask) []model.Time {
	v := make([]model.Time, procs)
	for _, ct := range cts {
		v[ct.Proc] += ct.Dur
	}
	return v
}
