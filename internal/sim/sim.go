// Package sim checks that an instance-level schedule is executable and
// measures what it costs to run over one hyper-period. Run checks every
// instance-level precedence (a consumer starts only after each input
// has arrived: producer end, plus C across processors) and sums, per
// processor, the quantities the paper reasons about:
//
//   - busy and idle time (the §1 motivation: "over 65% of processors
//     are idle at any given time");
//   - resident task memory (the paper's accounting).
//
// The memory a schedule needs beyond that is measured apart from Run
// (reuse.go): the receive-buffer high-watermark (BufferPeaks) and the
// peak of live buffers under perfect reuse (MinMemoryWithReuse).
package sim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
)

// ProcStats aggregates one processor's activity over the hyper-period.
type ProcStats struct {
	Busy        model.Time
	Idle        model.Time
	Instances   int
	ResidentMem model.Mem // per-instance task memory (paper accounting)
}

// Report is the outcome of one simulation run.
type Report struct {
	Horizon   model.Time // window simulated: [0, Horizon)
	Makespan  model.Time
	Procs     []ProcStats
	IdleRatio float64 // mean fraction of idle time across processors
}

// Runner checks and measures schedules; it has no settings.
type Runner struct{}

// Run checks the schedule's precedences and measures it over
// [0, makespan]. It fails if any consumer starts before all its input
// data has arrived (producer end + C for cross-processor edges), which
// would mean the schedule is not executable.
func (*Runner) Run(is *sched.InstSchedule) (*Report, error) {
	ts, ar := is.TS, is.Arch
	horizon := is.Makespan()
	rep := &Report{Horizon: horizon, Makespan: horizon, Procs: make([]ProcStats, ar.Procs)}

	// Verify executability.
	var depErr error
	for i := 0; i < ts.Len(); i++ {
		dst := model.TaskID(i)
		for k := 0; k < ts.Instances(dst); k++ {
			ci := model.InstanceID{Task: dst, K: k}
			cpl, ok := is.Placement(ci)
			if !ok {
				return nil, fmt.Errorf("sim: instance %v not placed", ci)
			}
			model.EachInstanceDep(ts, dst, k, func(src model.InstanceID) {
				if depErr != nil {
					return
				}
				spl, ok := is.Placement(src)
				if !ok {
					depErr = fmt.Errorf("sim: producer %v not placed", src)
					return
				}
				end := is.End(src)
				if spl.Proc != cpl.Proc {
					end += ar.CommTime
				}
				if end > cpl.Start {
					depErr = fmt.Errorf("sim: %s#%d starts at %d before its input from %s#%d arrives at %d",
						ts.Task(dst).Name, k+1, cpl.Start, ts.Task(src.Task).Name, src.K+1, end)
					return
				}
			})
			if depErr != nil {
				return nil, depErr
			}
		}
	}

	// Busy time and resident memory.
	for i := 0; i < ts.Len(); i++ {
		id := model.TaskID(i)
		t := ts.Task(id)
		for k := 0; k < ts.Instances(id); k++ {
			iid := model.InstanceID{Task: id, K: k}
			pl, _ := is.Placement(iid)
			rep.Procs[pl.Proc].Busy += t.WCET
			rep.Procs[pl.Proc].Instances++
			rep.Procs[pl.Proc].ResidentMem += t.Mem
		}
	}

	idleSum := 0.0
	for p := range rep.Procs {
		rep.Procs[p].Idle = horizon - rep.Procs[p].Busy
		if horizon > 0 {
			idleSum += float64(rep.Procs[p].Idle) / float64(horizon)
		}
	}
	rep.IdleRatio = idleSum / float64(ar.Procs)
	return rep, nil
}
