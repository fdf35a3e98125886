package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestAddTaskValidation(t *testing.T) {
	cases := []struct {
		name            string
		taskName        string
		period, wcet    Time
		mem             Mem
		wantErrContains string
	}{
		{"valid", "a", 10, 2, 1, ""},
		{"empty name", "", 10, 2, 1, "empty name"},
		{"zero period", "a", 0, 2, 1, "period"},
		{"negative period", "a", -5, 2, 1, "period"},
		{"zero wcet", "a", 10, 0, 1, "WCET"},
		{"wcet exceeds period", "a", 10, 11, 1, "exceeds period"},
		{"negative mem", "a", 10, 2, -1, "memory"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := NewTaskSet()
			_, err := ts.AddTask(c.taskName, c.period, c.wcet, c.mem)
			if c.wantErrContains == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErrContains) {
				t.Fatalf("error %v, want containing %q", err, c.wantErrContains)
			}
		})
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	ts := NewTaskSet()
	ts.MustAddTask("a", 10, 1, 1)
	if _, err := ts.AddTask("a", 20, 1, 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestAddDependenceValidation(t *testing.T) {
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 10, 1, 1)
	b := ts.MustAddTask("b", 20, 1, 1)
	c := ts.MustAddTask("c", 15, 1, 1)

	if err := ts.AddDependence(a, b, 1); err != nil {
		t.Fatalf("harmonic dependence rejected: %v", err)
	}
	if err := ts.AddDependence(a, a, 1); err == nil {
		t.Fatal("self-dependence accepted")
	}
	if err := ts.AddDependence(a, c, 1); err == nil {
		t.Fatal("non-harmonic dependence (10 vs 15) accepted")
	}
	if err := ts.AddDependence(a, TaskID(99), 1); err == nil {
		t.Fatal("unknown task accepted")
	}
	if err := ts.AddDependence(a, b, -2); err == nil {
		t.Fatal("negative data size accepted")
	}
}

func TestFreezeDetectsCycle(t *testing.T) {
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 10, 1, 1)
	b := ts.MustAddTask("b", 10, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustAddDependence(b, a, 1)
	if err := ts.Freeze(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestFreezeDetectsDuplicateEdge(t *testing.T) {
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 10, 1, 1)
	b := ts.MustAddTask("b", 10, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustAddDependence(a, b, 2)
	if err := ts.Freeze(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate edge not detected: %v", err)
	}
}

func TestFreezeEmptyRejected(t *testing.T) {
	if err := NewTaskSet().Freeze(); err == nil {
		t.Fatal("empty set frozen")
	}
}

func TestFrozenSetImmutable(t *testing.T) {
	ts := NewTaskSet()
	ts.MustAddTask("a", 10, 1, 1)
	ts.MustFreeze()
	if _, err := ts.AddTask("b", 10, 1, 1); err == nil {
		t.Fatal("AddTask allowed after Freeze")
	}
	if err := ts.AddDependence(0, 0, 1); err == nil {
		t.Fatal("AddDependence allowed after Freeze")
	}
	if err := ts.Freeze(); err != nil {
		t.Fatalf("second Freeze should be a no-op: %v", err)
	}
}

func TestHyperPeriodAndInstances(t *testing.T) {
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 1)
	b := ts.MustAddTask("b", 6, 1, 1)
	d := ts.MustAddTask("d", 12, 1, 1)
	ts.MustFreeze()

	if h := ts.HyperPeriod(); h != 12 {
		t.Errorf("hyper-period = %d, want 12", h)
	}
	for _, tc := range []struct {
		id   TaskID
		want int
	}{{a, 4}, {b, 2}, {d, 1}} {
		if got := ts.Instances(tc.id); got != tc.want {
			t.Errorf("instances(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
	if got := ts.TotalInstances(); got != 7 {
		t.Errorf("total instances = %d, want 7", got)
	}
}

func TestUtilizationAndTotalMem(t *testing.T) {
	ts := NewTaskSet()
	ts.MustAddTask("a", 4, 1, 3)
	ts.MustAddTask("b", 8, 2, 5)
	ts.MustFreeze()
	if u := ts.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	if m := ts.TotalMem(); m != 8 {
		t.Errorf("total mem = %d, want 8", m)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 10, 1, 1)
	b := ts.MustAddTask("b", 10, 1, 1)
	c := ts.MustAddTask("c", 10, 1, 1)
	ts.MustAddDependence(b, c, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()

	order := ts.TopoOrder()
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	if !(pos[a] < pos[b] && pos[b] < pos[c]) {
		t.Errorf("topological order %v violates a<b<c", order)
	}
}

// TestTopoOrderSmallestReadyFirst pins the order on random DAGs against
// the definition: each step takes the smallest ready ID (a linear scan
// over the ready set).
func TestTopoOrderSmallestReadyFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		ts := NewTaskSet()
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			ts.MustAddTask(fmt.Sprintf("t%d", i), 10, 1, 1)
		}
		// Edges go from a lower to a higher position of a random
		// permutation, so the graph is acyclic but not ID-ordered.
		perm := rng.Perm(n)
		edge := map[[2]int]bool{}
		for e := rng.Intn(3 * n); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i < j && !edge[[2]int{i, j}] {
				edge[[2]int{i, j}] = true
				ts.MustAddDependence(TaskID(perm[i]), TaskID(perm[j]), 1)
			}
		}
		ts.MustFreeze()

		indeg := make([]int, n)
		for _, d := range ts.Dependences() {
			indeg[d.Dst]++
		}
		var want []TaskID
		done := make([]bool, n)
		for len(want) < n {
			next := -1
			for i := 0; i < n; i++ {
				if !done[i] && indeg[i] == 0 {
					next = i
					break
				}
			}
			done[next] = true
			want = append(want, TaskID(next))
			for _, s := range ts.Successors(TaskID(next)) {
				indeg[s]--
			}
		}
		if got := ts.TopoOrder(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: TopoOrder %v, smallest-ready-first %v", trial, got, want)
		}
	}
}

func TestByNameAndAccessors(t *testing.T) {
	ts := NewTaskSet()
	a := ts.MustAddTask("alpha", 10, 2, 7)
	b := ts.MustAddTask("beta", 20, 3, 1)
	ts.MustAddDependence(a, b, 5)
	ts.MustFreeze()

	got, ok := ts.ByName("alpha")
	if !ok || got.ID != a || got.WCET != 2 || got.Mem != 7 {
		t.Errorf("ByName(alpha) = %+v, %v", got, ok)
	}
	if _, ok := ts.ByName("gamma"); ok {
		t.Error("ByName(gamma) found a phantom task")
	}
	if d, ok := ts.DependenceData(a, b); !ok || d != 5 {
		t.Errorf("DependenceData = %d, %v", d, ok)
	}
	if _, ok := ts.DependenceData(b, a); ok {
		t.Error("reverse edge reported")
	}
	if len(ts.Successors(a)) != 1 || ts.Successors(a)[0] != b {
		t.Errorf("Successors(a) = %v", ts.Successors(a))
	}
	if len(ts.Predecessors(b)) != 1 || ts.Predecessors(b)[0] != a {
		t.Errorf("Predecessors(b) = %v", ts.Predecessors(b))
	}
	if n := len(ts.Tasks()); n != 2 {
		t.Errorf("Tasks() has %d entries", n)
	}
	if n := len(ts.Dependences()); n != 1 {
		t.Errorf("Dependences() has %d entries", n)
	}
}

func TestZeroDataDefaultsToOne(t *testing.T) {
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 10, 1, 1)
	b := ts.MustAddTask("b", 10, 1, 1)
	ts.MustAddDependence(a, b, 0)
	ts.MustFreeze()
	if d, _ := ts.DependenceData(a, b); d != 1 {
		t.Errorf("zero data size stored as %d, want default 1", d)
	}
}
