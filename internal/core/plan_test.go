package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/sched"
)

// snapshotPlan deep-copies every slice of a plan, so a later comparison
// sees any write through the plan's own backing arrays.
func snapshotPlan(pl *Plan) *Plan {
	cp := *pl
	cp.init = pl.init.clone()
	cp.owner = slices.Clone(pl.owner)
	cp.taskBlockOff = slices.Clone(pl.taskBlockOff)
	cp.taskBlockIDs = slices.Clone(pl.taskBlockIDs)
	cp.wcet = slices.Clone(pl.wcet)
	cp.room = slices.Clone(pl.room)
	cp.mem = slices.Clone(pl.mem)
	return &cp
}

// sameResult fails unless two results agree in every field, the balanced
// schedules' placements included.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result from the shared plan differs from a fresh Run", what)
	}
}

// runOn balances the plan's schedule under b.Policy alone.
func runOn(b Balancer, pl *Plan) (*Result, error) {
	res, err := b.RunPolicies(pl, []Policy{b.Policy})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// TestPlanSharedAcrossRuns runs every policy — with and without the
// conservative rerun — from one Plan, in two orders and then
// concurrently, and requires each result to equal a fresh Run on the
// schedule and the plan to be unchanged afterwards. Under -race the
// concurrent round also shows that no pass writes the plan.
func TestPlanSharedAcrossRuns(t *testing.T) {
	ts, err := gen.Generate(gen.Config{Seed: 9, Tasks: 21, Utilization: 2.4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewScheduler(ts, arch.MustNew(4, 1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	is := sched.FromSchedule(s)
	balancers := []Balancer{
		{Policy: PolicyLexicographic},
		{Policy: PolicyRatio},
		{Policy: PolicyMemoryOnly},
		{Policy: PolicyMemoryOnly, IgnoreTiming: true},
		{Policy: PolicyLexicographic, RecordCandidates: true},
	}
	fresh := make([]*Result, len(balancers))
	reruns := 0
	for i := range balancers {
		if fresh[i], err = balancers[i].Run(is); err != nil {
			t.Fatal(err)
		}
		if fresh[i].ConservativePropagation {
			reruns++
		}
	}
	if reruns == 0 || reruns == len(balancers) {
		t.Fatalf("%d of %d runs take the conservative rerun, want some but not all", reruns, len(balancers))
	}

	pl := NewPlan(is)
	before := snapshotPlan(pl)
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}} {
		for _, i := range order {
			res, err := runOn(balancers[i], pl)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, balancers[i].Policy.String(), res, fresh[i])
		}
	}
	var wg sync.WaitGroup
	results := make([]*Result, len(balancers))
	for i := range balancers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = runOn(balancers[i], pl)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatalf("concurrent run %d failed", i)
		}
		sameResult(t, "concurrent "+balancers[i].Policy.String(), res, fresh[i])
	}
	if !reflect.DeepEqual(before, pl) {
		t.Fatal("running from the plan modified it")
	}
}

// TestScheduleSharedByReaders: reading a schedule never writes it, so
// two goroutines may build plans from one schedule, walk its processor
// listings and validate it at the same time. Under -race this shows the
// readers share the schedule without a data race.
func TestScheduleSharedByReaders(t *testing.T) {
	ts, err := gen.Generate(gen.Config{Seed: 9, Tasks: 21, Utilization: 2.4})
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.MustNew(4, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := NewPlan(sched.FromSchedule(s))
	is := sched.FromSchedule(s)
	plans := make([]*Plan, 2)
	listed := make([]int, 2)
	invalid := make([][]sched.ValidationError, 2)
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[g] = NewPlan(is)
			for p := range ar.Procs {
				listed[g] += len(is.InstancesOn(arch.ProcID(p)))
			}
			invalid[g] = is.Validate()
		}()
	}
	wg.Wait()
	for g := range plans {
		if !reflect.DeepEqual(plans[g], want) {
			t.Fatalf("reader %d: plan of the shared schedule differs from a plan of its own copy", g)
		}
		if listed[g] != ts.TotalInstances() {
			t.Fatalf("reader %d: listings hold %d instances, want %d", g, listed[g], ts.TotalInstances())
		}
		if len(invalid[g]) > 0 {
			t.Fatalf("reader %d: shared schedule invalid: %v", g, invalid[g][0])
		}
	}
}
