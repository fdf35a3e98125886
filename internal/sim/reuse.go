package sim

import (
	"cmp"
	"slices"

	"repro/internal/model"
	"repro/internal/sched"
)

// reuse.go quantifies the paper's figure-1 argument. The paper charges
// every task instance its full memory amount because "memory reuse is not
// always possible": the n data produced by a faster producer for one
// slower consumer must coexist. But *between unrelated instances* whose
// lifetimes do not overlap, a real allocator can reuse storage (the
// paper's reference [5], Biswas et al.). MinMemoryWithReuse computes that
// lower bound per processor by sweeping buffer lifetimes, so experiments
// can report both accountings side by side:
//
//   - paper accounting:  Σ over resident instances of m(task)
//   - reuse accounting:  peak of simultaneously-live buffers
//
// A buffer is live from the start of the producing instance (the task
// materialises its data while it runs) until the end of the last instance
// that consumes it (+C transfer tail for remote consumers); data that
// nobody consumes lives until its producer's instance ends.
type lifetime struct {
	start, end model.Time
	mem        model.Mem
}

// MemReuseReport compares the two accountings for one schedule.
type MemReuseReport struct {
	Paper []model.Mem // per-processor, the paper's no-reuse accounting
	Reuse []model.Mem // per-processor, peak live memory with reuse
}

// Savings returns 1 − Σreuse/Σpaper, the fraction of memory the paper's
// accounting overstates relative to a perfectly reusing allocator.
//
// The zero return is ambiguous: it means either "genuinely no savings"
// (Σreuse == Σpaper > 0) or "nothing to compare" (Σpaper == 0 — an
// empty or memoryless schedule, where the ratio is undefined and 0 is
// a convention). Consumers that must tell the two apart use SavingsOK.
func (r *MemReuseReport) Savings() float64 {
	s, _ := r.SavingsOK()
	return s
}

// SavingsOK is Savings with the undefined case made explicit: ok is
// false — and the savings value 0 by convention — when Σpaper == 0,
// true when the fraction is a real measurement (including a measured
// zero).
func (r *MemReuseReport) SavingsOK() (savings float64, ok bool) {
	var p, u model.Mem
	for i := range r.Paper {
		p += r.Paper[i]
		u += r.Reuse[i]
	}
	if p == 0 {
		return 0, false
	}
	return 1 - float64(u)/float64(p), true
}

// MinMemoryWithReuse computes the per-processor peak of simultaneously
// live task buffers over one hyper-period (steady state: lifetimes are
// wrapped modulo H).
//
// Lifetimes are accumulated consumer-major in one pass over the
// instance-level dependences, into a dense per-instance table: each
// consumer instance extends the lifetime of every datum it reads. The
// older producer-major formulation re-enumerated every successor's whole
// instance range per producer, which was quadratic in the dependence
// fan-out.
func MinMemoryWithReuse(is *sched.InstSchedule) *MemReuseReport {
	ts, ar := is.TS, is.Arch
	h := ts.HyperPeriod()
	rep := &MemReuseReport{
		Paper: is.MemVector(),
		Reuse: make([]model.Mem, ar.Procs),
	}

	// ends[i] is the lifetime end of the datum produced by the instance
	// with dense index i; −1 marks an unplaced producer.
	ends := make([]model.Time, ts.TotalInstances())
	for i := 0; i < ts.Len(); i++ {
		id := model.TaskID(i)
		for k := 0; k < ts.Instances(id); k++ {
			iid := model.InstanceID{Task: id, K: k}
			if _, ok := is.Placement(iid); !ok {
				ends[ts.InstanceIndex(iid)] = -1
				continue
			}
			ends[ts.InstanceIndex(iid)] = is.End(iid)
		}
	}
	for i := 0; i < ts.Len(); i++ {
		dst := model.TaskID(i)
		for k := 0; k < ts.Instances(dst); k++ {
			ci := model.InstanceID{Task: dst, K: k}
			cpl, cok := is.Placement(ci)
			cend := is.End(ci)
			model.EachInstanceDep(ts, dst, k, func(src model.InstanceID) {
				idx := ts.InstanceIndex(src)
				if ends[idx] < 0 {
					return
				}
				e := cend
				if spl, _ := is.Placement(src); cok && cpl.Proc != spl.Proc {
					// The data leaves the producer's processor once the
					// transfer completes: producer side holds it until the
					// consumer start at the latest (send + flight).
					e = is.End(src) + ar.CommTime
				}
				if e > ends[idx] {
					ends[idx] = e
				}
			})
		}
	}

	perProc := make([][]lifetime, ar.Procs)
	for i := 0; i < ts.Len(); i++ {
		id := model.TaskID(i)
		mem := ts.Task(id).Mem
		for k := 0; k < ts.Instances(id); k++ {
			iid := model.InstanceID{Task: id, K: k}
			pl, ok := is.Placement(iid)
			if !ok {
				continue
			}
			perProc[pl.Proc] = append(perProc[pl.Proc], lifetime{start: pl.Start, end: ends[ts.InstanceIndex(iid)], mem: mem})
		}
	}

	for p := range perProc {
		rep.Reuse[p] = peakLive(perProc[p], h)
	}
	return rep
}

// peakLive sweeps lifetimes wrapped into the steady-state ring [0, h).
func peakLive(lts []lifetime, h model.Time) model.Mem {
	type ev struct {
		at    model.Time
		delta model.Mem
	}
	var evs []ev
	for _, lt := range lts {
		if lt.end-lt.start >= h {
			// Live the whole ring: constant contribution.
			evs = append(evs, ev{0, lt.mem})
			continue
		}
		s := model.Mod(lt.start, h)
		e := model.Mod(lt.end, h)
		if s < e {
			evs = append(evs, ev{s, lt.mem}, ev{e, -lt.mem})
		} else { // wraps midnight
			evs = append(evs, ev{0, lt.mem}, ev{e, -lt.mem}, ev{s, lt.mem})
			// the closing -mem at h is implicit (sweep ends there)
		}
	}
	slices.SortFunc(evs, func(a, b ev) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.delta, b.delta)
	})
	var cur, peak model.Mem
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// BufferPeaks returns each processor's receive-buffer high-watermark over
// the schedule's one pass: every datum arriving from another processor
// occupies the consumer side's buffer from its arrival (producer end
// + C) until the consuming instance completes. Data produced by n
// instances of a faster producer must all be stored there until the
// consumer runs, so no reuse between them is possible (figure 1).
// Unplaced instances are skipped; Runner.Run is the executability check.
func BufferPeaks(is *sched.InstSchedule) []model.Mem {
	ts, ar := is.TS, is.Arch
	buffers := make([][]arrival, ar.Procs)
	for i := 0; i < ts.Len(); i++ {
		dst := model.TaskID(i)
		for k := 0; k < ts.Instances(dst); k++ {
			ci := model.InstanceID{Task: dst, K: k}
			cpl, ok := is.Placement(ci)
			if !ok {
				continue
			}
			model.EachInstanceDepData(ts, dst, k, func(src model.InstanceID, data model.Mem) {
				if spl, ok := is.Placement(src); ok && spl.Proc != cpl.Proc {
					buffers[cpl.Proc] = append(buffers[cpl.Proc], arrival{
						at:   is.End(src) + ar.CommTime,
						data: data,
						free: cpl.Start + ts.Task(dst).WCET,
					})
				}
			})
		}
	}
	peaks := make([]model.Mem, ar.Procs)
	for p := range buffers {
		peaks[p] = peakOccupancy(buffers[p])
	}
	return peaks
}

// arrival is one datum landing in a processor's receive buffer: it
// occupies the buffer from its arrival until the consumer instance that
// uses it completes.
type arrival struct {
	at   model.Time
	data model.Mem
	free model.Time // consumer end: buffer slot released
}

type occEvent struct {
	at    model.Time
	delta model.Mem
}

// peakOccupancy computes the maximum simultaneous buffer occupancy given
// arrival intervals [at, free).
func peakOccupancy(arrivals []arrival) model.Mem {
	evs := make([]occEvent, 0, 2*len(arrivals))
	for _, a := range arrivals {
		evs = append(evs, occEvent{a.at, a.data}, occEvent{a.free, -a.data})
	}
	slices.SortFunc(evs, func(a, b occEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.delta, b.delta) // frees before arrivals at the same tick
	})
	var cur, peak model.Mem
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
