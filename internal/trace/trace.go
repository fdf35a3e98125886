// Package trace renders schedules for humans: ASCII Gantt charts in the
// style of the paper's figures 3 and 4, and CSV exports for external
// plotting.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/sched"
)

// Gantt writes an ASCII Gantt chart of an instance-level schedule, one
// row per processor, one column per time unit. Instance labels are the
// first letter(s) of the task name; idle time is rendered as '.'.
func Gantt(w io.Writer, is *sched.InstSchedule) error {
	ts, ar := is.TS, is.Arch
	horizon := is.Makespan()
	if horizon <= 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}

	// Ruler.
	var ruler strings.Builder
	ruler.WriteString("      ")
	for t := model.Time(0); t < horizon; t += 5 {
		ruler.WriteString(fmt.Sprintf("%-5d", t))
	}
	if _, err := fmt.Fprintln(w, strings.TrimRight(ruler.String(), " ")); err != nil {
		return err
	}

	for p := arch.ProcID(0); int(p) < ar.Procs; p++ {
		cells := make([]byte, horizon)
		for i := range cells {
			cells[i] = '.'
		}
		for _, iid := range is.InstancesOn(p) {
			pl, _ := is.Placement(iid)
			name := ts.Task(iid.Task).Name
			label := name[0]
			for t := pl.Start; t < pl.Start+ts.Task(iid.Task).WCET && t < horizon; t++ {
				cells[t] = label
			}
		}
		if _, err := fmt.Fprintf(w, "%-5s %s\n", ar.ProcName(p), string(cells)); err != nil {
			return err
		}
	}
	return nil
}

// GanttSchedule renders a task-level schedule by expanding it first.
func GanttSchedule(w io.Writer, s *sched.Schedule) error {
	return Gantt(w, sched.FromSchedule(s))
}

// CSV writes one line per instance: task, instance, processor, start,
// end, memory. Deterministic row order.
func CSV(w io.Writer, is *sched.InstSchedule) error {
	if _, err := fmt.Fprintln(w, "task,instance,processor,start,end,mem"); err != nil {
		return err
	}
	rows := model.ExpandInstances(is.TS)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Task != rows[j].Task {
			return rows[i].Task < rows[j].Task
		}
		return rows[i].K < rows[j].K
	})
	for _, iid := range rows {
		pl, ok := is.Placement(iid)
		if !ok {
			continue
		}
		t := is.TS.Task(iid.Task)
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n",
			t.Name, iid.K+1, int(pl.Proc)+1, pl.Start, pl.Start+t.WCET, t.Mem); err != nil {
			return err
		}
	}
	return nil
}

// Comms writes the derived transfers of a task-level schedule, one per
// line, in the order they occupy the medium.
func Comms(w io.Writer, s *sched.Schedule) error {
	cms, err := s.Comms()
	if err != nil {
		return err
	}
	sort.Slice(cms, func(i, j int) bool { return cms[i].Start < cms[j].Start })
	for _, c := range cms {
		srcName := s.TS.Task(c.Src.Task).Name
		dstName := s.TS.Task(c.Dst.Task).Name
		if _, err := fmt.Fprintf(w, "%s#%d -> %s#%d on %s [%d,%d)\n",
			srcName, c.Src.K+1, dstName, c.Dst.K+1,
			s.Arch.MediumName(c.Medium), c.Start, c.End(s.Arch)); err != nil {
			return err
		}
	}
	return nil
}
