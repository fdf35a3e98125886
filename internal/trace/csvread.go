package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/sched"
)

// ReadCSV parses a schedule exported by CSV back into an instance-level
// schedule over the given task set and architecture. It verifies that
// every row names a known task, that instance indices are in range, and
// that the end column matches start + WCET (a cheap integrity check on
// hand-edited files).
func ReadCSV(r io.Reader, ts *model.TaskSet, a *arch.Architecture) (*sched.InstSchedule, error) {
	pl := sched.NewPlacements(ts)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			if text != "task,instance,processor,start,end,mem" {
				return nil, fmt.Errorf("trace: line 1: unexpected header %q", text)
			}
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 6 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 6", line, len(fields))
		}
		task, ok := ts.ByName(fields[0])
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown task %q", line, fields[0])
		}
		k, err := strconv.Atoi(fields[1])
		if err != nil || k < 1 || k > ts.Instances(task.ID) {
			return nil, fmt.Errorf("trace: line %d: bad instance %q for task %q", line, fields[1], fields[0])
		}
		proc, err := strconv.Atoi(fields[2])
		if err != nil || proc < 1 || proc > a.Procs {
			return nil, fmt.Errorf("trace: line %d: bad processor %q", line, fields[2])
		}
		start, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || start < 0 {
			return nil, fmt.Errorf("trace: line %d: bad start %q", line, fields[3])
		}
		end, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad end %q", line, fields[4])
		}
		if model.Time(end) != model.Time(start)+task.WCET {
			return nil, fmt.Errorf("trace: line %d: end %d ≠ start %d + WCET %d", line, end, start, task.WCET)
		}
		pl[ts.InstanceIndex(model.InstanceID{Task: task.ID, K: k - 1})] = sched.InstPlacement{Proc: arch.ProcID(proc - 1), Start: model.Time(start)}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return sched.NewInstSchedule(ts, a, pl), nil
}
