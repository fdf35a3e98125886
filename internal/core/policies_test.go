package core

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/sched"
)

// checkRunPolicies balances is under every policy of pols in one
// RunPolicies call and requires each result to equal a separate
// single-policy run on the plan (runOn), in every field but Placements:
// the moves with their feasible counts, relaxed and forced flags and —
// under RecordCandidates — each policy's own candidate records and λ;
// the placements; and ConservativePropagation. It also requires the shared
// walks to have done no more work than the separate runs. It returns how
// many entries took the conservative rerun.
func checkRunPolicies(t *testing.T, b Balancer, is *sched.InstSchedule, pols []Policy, what string) int {
	t.Helper()
	pl := NewPlan(is)
	got, err := b.RunPolicies(pl, pols)
	if err != nil {
		t.Fatalf("%s: RunPolicies: %v", what, err)
	}
	if len(got) != len(pols) {
		t.Fatalf("%s: %d results for %d policies", what, len(got), len(pols))
	}
	reruns, shared, separate := 0, 0, 0
	for i, pol := range pols {
		b.Policy = pol
		want, err := runOn(b, pl)
		if err != nil {
			t.Fatalf("%s: run %v: %v", what, pol, err)
		}
		shared += got[i].Placements
		separate += want.Placements
		g, w := *got[i], *want
		g.Placements, w.Placements = 0, 0
		sameResult(t, fmt.Sprintf("%s: entry %d (%v)", what, i, pol), &g, &w)
		if got[i].ConservativePropagation {
			reruns++
		}
	}
	if shared > separate {
		t.Fatalf("%s: shared walks placed %d blocks, separate runs %d", what, shared, separate)
	}
	return reruns
}

// TestRunPoliciesMatchesRunPlan runs policy lists — in different orders,
// with repeats — through RunPolicies under each balancer configuration.
// The first system sends some policies but not all through the
// conservative rerun, so the rerun's shared walks cover a subset.
func TestRunPoliciesMatchesRunPlan(t *testing.T) {
	lists := [][]Policy{
		{PolicyLexicographic, PolicyRatio, PolicyMemoryOnly},
		{PolicyMemoryOnly, PolicyRatio, PolicyLexicographic, PolicyRatio},
		{PolicyRatio, PolicyRatio},
		{PolicyMemoryOnly},
	}
	configs := []Balancer{
		{},
		{RecordCandidates: true},
		{DisableLCMCondition: true},
		{IgnoreTiming: true},
	}
	partial := false
	for _, c := range []struct {
		gen   gen.Config
		procs int
	}{
		{gen.Config{Seed: 9, Tasks: 21, Utilization: 2.4}, 4},
		{gen.Config{Seed: 3, Tasks: 40, Utilization: 3}, 6},
		{gen.Config{Seed: 20, Tasks: 28, Utilization: 2}, 3},
	} {
		ts, err := gen.Generate(c.gen)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.NewScheduler(ts, arch.MustNew(c.procs, 1)).Run()
		if err != nil {
			t.Fatal(err)
		}
		is := sched.FromSchedule(s)
		for _, b := range configs {
			for _, pols := range lists {
				what := fmt.Sprintf("%+v M=%d %+v %v", c.gen, c.procs, b, pols)
				if r := checkRunPolicies(t, b, is, pols, what); r > 0 && r < len(pols) {
					partial = true
				}
			}
		}
	}
	if !partial {
		t.Fatal("no policy list took the conservative rerun for some entries only")
	}
}

// fuzzPolicies decodes a policy list: one to five entries, in any order,
// repeats allowed.
func fuzzPolicies(code uint16) []Policy {
	pols := make([]Policy, 1+int(code%5))
	code /= 5
	for i := range pols {
		pols[i] = Policy(code % 3)
		code /= 3
	}
	return pols
}

// FuzzRunPolicies checks RunPolicies against one single-policy run per
// entry (checkRunPolicies) over generated systems, policy lists, and the
// balancer's IgnoreTiming, DisableLCMCondition and RecordCandidates
// switches (flags bits 0–2).
func FuzzRunPolicies(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(29), uint8(3), uint8(24), uint8(0), uint16(2+5*(0+3*1+9*2)), uint8(0))
		f.Add(seed, uint8(20), uint8(2), uint8(23), uint8(0), uint16(3+5*(2+3*1+9*0+27*1)), uint8(4))
	}
	f.Add(int64(5), uint8(11), uint8(1), uint8(19), uint8(1), uint16(4+5*(1+3*1+9*2+27*0+81*2)), uint8(1))
	f.Add(int64(7), uint8(39), uint8(4), uint8(35), uint8(2), uint16(2+5*(1+3*2+9*0)), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, tasks, procs, util, ladder uint8, code uint16, flags uint8) {
		cfg, m, _ := fuzzInput(seed, tasks, procs, 0, util, ladder)
		ts, err := gen.Generate(cfg)
		if err != nil {
			return // the generator refuses this shape
		}
		s, err := sched.NewScheduler(ts, arch.MustNew(m, 1)).Run()
		if err != nil {
			return // unschedulable: nothing to balance
		}
		b := Balancer{IgnoreTiming: flags&1 != 0, DisableLCMCondition: flags&2 != 0, RecordCandidates: flags&4 != 0}
		pols := fuzzPolicies(code)
		checkRunPolicies(t, b, sched.FromSchedule(s), pols, fmt.Sprintf("%+v M=%d %+v %v", cfg, m, b, pols))
	})
}
