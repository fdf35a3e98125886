package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/sched"
)

func sample(t *testing.T) *sched.Schedule {
	t.Helper()
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 4)
	b := ts.MustAddTask("b", 6, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	ar := arch.MustNew(2, 1)
	s := sched.MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 5)
	return s
}

func TestGanttRendersRowsAndLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := GanttSchedule(&buf, sample(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "P1") || !strings.Contains(out, "P2") {
		t.Errorf("missing processor rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // ruler + 2 processors
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	// P1 row: a at 0 and 3.
	p1 := lines[1]
	if !strings.Contains(p1, "a") {
		t.Errorf("P1 row missing task a: %q", p1)
	}
	if !strings.Contains(lines[2], "b") {
		t.Errorf("P2 row missing task b: %q", lines[2])
	}
}

func TestGanttEmpty(t *testing.T) {
	ts := model.NewTaskSet()
	ts.MustAddTask("a", 3, 1, 1)
	ts.MustFreeze()
	is := sched.NewInstSchedule(ts, arch.MustNew(1, 0), sched.NewPlacements(ts))
	var buf bytes.Buffer
	if err := Gantt(&buf, is); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("empty schedule rendering: %q", buf.String())
	}
}

func TestCSVFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := CSV(&buf, sched.FromSchedule(sample(t))); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "task,instance,processor,start,end,mem" {
		t.Errorf("header = %q", lines[0])
	}
	// a has 2 instances + b has 1 = 3 data rows.
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if lines[1] != "a,1,1,0,1,4" {
		t.Errorf("first row = %q, want a,1,1,0,1,4", lines[1])
	}
}

func TestCommsListing(t *testing.T) {
	var buf bytes.Buffer
	if err := Comms(&buf, sample(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a#1 -> b#1") || !strings.Contains(out, "a#2 -> b#1") {
		t.Errorf("transfers missing:\n%s", out)
	}
	if !strings.Contains(out, "Med") {
		t.Errorf("medium name missing:\n%s", out)
	}
}
