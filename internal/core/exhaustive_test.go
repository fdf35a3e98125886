package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
)

// TestExhaustiveNeverWorseThanGreedy: by construction the exhaustive
// search optimises over a superset of the greedy's decisions, so its
// best must be at least as good on the chosen objective.
func TestExhaustiveNeverWorseThanGreedy(t *testing.T) {
	s := paperInitial(t)
	is := sched.FromSchedule(s)
	b := &Balancer{}
	greedy, err := b.Run(is)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{ObjectiveMakespan, ObjectiveMaxMem} {
		best, leaves, err := b.ExhaustiveBest(is, obj)
		if err != nil {
			t.Fatalf("objective %v: %v", obj, err)
		}
		if leaves == 0 {
			t.Fatalf("objective %v: no complete scripts", obj)
		}
		switch obj {
		case ObjectiveMakespan:
			if best.MakespanAfter > greedy.MakespanAfter {
				t.Errorf("exhaustive makespan %d worse than greedy %d", best.MakespanAfter, greedy.MakespanAfter)
			}
		case ObjectiveMaxMem:
			if metrics.MaxMem(best.MemAfter) > metrics.MaxMem(greedy.MemAfter) {
				t.Errorf("exhaustive max-mem %d worse than greedy %d", metrics.MaxMem(best.MemAfter), metrics.MaxMem(greedy.MemAfter))
			}
		}
		if errs := best.Schedule.Validate(); len(errs) > 0 {
			t.Errorf("objective %v: best schedule invalid: %v", obj, errs[0])
		}
	}
}

// TestExhaustiveOnPaperExample: the worked example's greedy outcome
// (makespan 14) is in fact sequentially optimal — no placement script
// beats it.
func TestExhaustiveOnPaperExample(t *testing.T) {
	s := paperInitial(t)
	is := sched.FromSchedule(s)
	best, leaves, err := (&Balancer{}).ExhaustiveBest(is, ObjectiveMakespan)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d complete scripts", leaves)
	if best.MakespanAfter != 14 {
		t.Errorf("optimal sequential makespan = %d; greedy already achieves 14", best.MakespanAfter)
	}
}

// TestExhaustiveRejectsLargeInputs guards the exponential blow-up.
func TestExhaustiveRejectsLargeInputs(t *testing.T) {
	// The limit is in blocks; a system of independent tasks yields one
	// block per instance.
	ts := model.NewTaskSet()
	for i := 0; i < ExhaustiveLimit+2; i++ {
		ts.MustAddTask(taskName(i), 100, 1, 1)
	}
	ts.MustFreeze()
	sc, err := sched.NewScheduler(ts, arch.MustNew(3, 1)).Run()
	if err != nil {
		t.Skip(err)
	}
	if _, _, err := (&Balancer{}).ExhaustiveBest(sched.FromSchedule(sc), ObjectiveMakespan); err == nil {
		t.Fatal("oversized input accepted")
	}
}

// refExhaustive enumerates every placement script in lexicographic order
// of processors through the reference pass and returns the number of
// feasible complete scripts and, per objective, the first strict best.
// A script whose prefix is infeasible fails at that prefix whatever
// follows, so the enumeration skips its extensions.
func refExhaustive(b *Balancer, is *sched.InstSchedule) (int, [2]*Result) {
	nb := len(NewPlan(is).init.blks)
	leaves := 0
	var best [2]*Result
	var dfs func(prefix []arch.ProcID)
	dfs = func(prefix []arch.ProcID) {
		for p := range is.Arch.Procs {
			script := append(slices.Clone(prefix), arch.ProcID(p))
			res, err := refRunPass(b, is, false, script)
			if err != nil {
				continue
			}
			if len(script) < nb {
				dfs(script)
				continue
			}
			leaves++
			for _, obj := range []Objective{ObjectiveMakespan, ObjectiveMaxMem} {
				if best[obj] == nil || better2(obj, res.MakespanAfter, metrics.MaxMem(res.MemAfter), best[obj].MakespanAfter, metrics.MaxMem(best[obj].MemAfter)) {
					best[obj] = res
				}
			}
		}
	}
	dfs(nil)
	return leaves, best
}

// TestExhaustiveMatchesScriptEnumeration: the search over balancing
// states finds the same number of feasible complete scripts, and the
// same first strict best under each objective, as enumerating every
// script through the evaluate-everything reference — on the paper
// example and E9's generator, under each balancer variant.
func TestExhaustiveMatchesScriptEnumeration(t *testing.T) {
	type input struct {
		name string
		is   *sched.InstSchedule
	}
	inputs := []input{{"paper", sched.FromSchedule(paperInitial(t))}}
	for seed := range 10 {
		ts, err := gen.Generate(gen.Config{Seed: int64(seed), Tasks: 6, Utilization: 1.2,
			Periods: []model.Time{20, 40}})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.NewScheduler(ts, arch.MustNew(3, 1)).Run()
		if err != nil {
			continue // unschedulable: nothing to search
		}
		inputs = append(inputs, input{fmt.Sprintf("E9 seed %d", seed), sched.FromSchedule(s)})
	}
	if len(inputs) < 8 {
		t.Fatalf("only %d schedulable inputs", len(inputs))
	}
	variants := []Balancer{{}, {IgnoreTiming: true}, {DisableLCMCondition: true}, {RecordCandidates: true}}
	scripts := 0
	for _, is := range inputs {
		for _, b := range variants {
			what := fmt.Sprintf("%s %+v", is.name, b)
			leaves, want := refExhaustive(&b, is.is)
			for _, obj := range []Objective{ObjectiveMakespan, ObjectiveMaxMem} {
				got, n, err := b.ExhaustiveBest(is.is, obj)
				if want[obj] == nil {
					if err == nil {
						t.Fatalf("%s objective %v: search found a script, the reference none", what, obj)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s objective %v: %v", what, obj, err)
				}
				if n != leaves {
					t.Fatalf("%s objective %v: %d complete scripts, reference %d", what, obj, n, leaves)
				}
				w := want[obj]
				if got.MakespanAfter != w.MakespanAfter || !slices.Equal(got.MemAfter, w.MemAfter) {
					t.Fatalf("%s objective %v: makespan %d mem %v, reference %d %v",
						what, obj, got.MakespanAfter, got.MemAfter, w.MakespanAfter, w.MemAfter)
				}
				checkSameResult(t, got, w, fmt.Sprintf("%s objective %v", what, obj))
			}
			scripts += leaves
		}
	}
	t.Logf("%d inputs, %d feasible complete scripts", len(inputs), scripts)
}

// TestExhaustiveConcurrentWithRun: ExhaustiveBest, like Run, only reads
// the Balancer, so two searches and a run may share one. Each goroutine
// has its own schedule; TestScheduleSharedByReaders shares one.
func TestExhaustiveConcurrentWithRun(t *testing.T) {
	s := paperInitial(t)
	b := &Balancer{}
	objs := []Objective{ObjectiveMakespan, ObjectiveMaxMem}
	wantRun, err := b.Run(sched.FromSchedule(s))
	if err != nil {
		t.Fatal(err)
	}
	var want [2]*Result
	var wantLeaves [2]int
	for i, obj := range objs {
		if want[i], wantLeaves[i], err = b.ExhaustiveBest(sched.FromSchedule(s), obj); err != nil {
			t.Fatal(err)
		}
	}

	inputs := []*sched.InstSchedule{sched.FromSchedule(s), sched.FromSchedule(s), sched.FromSchedule(s)}
	var got [2]*Result
	var leaves [2]int
	var run *Result
	var errs [3]error
	var wg sync.WaitGroup
	for i, obj := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], leaves[i], errs[i] = b.ExhaustiveBest(inputs[i], obj)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		run, errs[2] = b.Run(inputs[2])
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(run.Moves, wantRun.Moves) {
		t.Errorf("concurrent Run moves differ from a lone Run:\n got  %+v\n want %+v", run.Moves, wantRun.Moves)
	}
	for i, obj := range objs {
		if leaves[i] != wantLeaves[i] || !reflect.DeepEqual(got[i].Moves, want[i].Moves) {
			t.Errorf("objective %v: concurrent search found %d scripts, best moves %+v; alone %d, %+v",
				obj, leaves[i], got[i].Moves, wantLeaves[i], want[i].Moves)
		}
	}
}
