package sched

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
)

// refCrossDeps expands every cross-processor dependence through the
// allocating model.InstanceDeps: eachCrossDep's order, and Comms' before
// its EDF sort.
func refCrossDeps(s *Schedule) []Comm {
	var out []Comm
	for _, d := range s.TS.Dependences() {
		sp, dp := s.place[d.Src].Proc, s.place[d.Dst].Proc
		if sp == Unplaced || dp == Unplaced || sp == dp {
			continue
		}
		med, err := s.Arch.Route(sp, dp)
		if err != nil {
			continue
		}
		for k := 0; k < s.TS.Instances(d.Dst); k++ {
			for _, src := range model.InstanceDeps(s.TS, d.Dst, k) {
				if src.Task == d.Src {
					out = append(out, Comm{Src: src, Dst: model.InstanceID{Task: d.Dst, K: k}, Medium: med, Data: d.Data})
				}
			}
		}
	}
	return out
}

// refCommOrder sorts cross dependences with the EDF order's former
// sort.Slice closure comparator.
func refCommOrder(s *Schedule, cross []Comm) {
	sort.Slice(cross, func(i, j int) bool {
		a, b := cross[i], cross[j]
		ad := s.InstanceStart(a.Dst.Task, a.Dst.K)
		bd := s.InstanceStart(b.Dst.Task, b.Dst.K)
		if ad != bd {
			return ad < bd
		}
		ae := s.InstanceEnd(a.Src.Task, a.Src.K)
		be := s.InstanceEnd(b.Src.Task, b.Src.K)
		if ae != be {
			return ae < be
		}
		if a.Src.Task != b.Src.Task {
			return a.Src.Task < b.Src.Task
		}
		return a.Dst.Task < b.Dst.Task
	})
}

// TestCommsOrderMatchesSortSlice pins Comms() order on generated
// schedules to the former sort.Slice order, under both medium models,
// and eachCrossDep to its former expansion.
func TestCommsOrderMatchesSortSlice(t *testing.T) {
	var checked int
	for seed := int64(0); seed < 20; seed++ {
		for _, contended := range []bool{false, true} {
			ts := gen.MustGenerate(gen.Config{Seed: seed, Tasks: 30 + 5*int(seed), Utilization: 3})
			ar := arch.MustNew(5, 1)
			ar.ContendedMedia = contended
			s, err := NewScheduler(ts, ar).Run()
			if err != nil {
				continue // the contended model refuses some schedules
			}
			want := refCrossDeps(s)
			var cross []Comm
			s.eachCrossDep(func(cm Comm) { cross = append(cross, cm) })
			if !slices.Equal(cross, want) {
				t.Fatalf("seed %d: eachCrossDep differs from the InstanceDeps expansion", seed)
			}
			refCommOrder(s, want)
			got, err := s.Comms()
			if err != nil {
				t.Fatalf("seed %d contended=%v: Comms after Run: %v", seed, contended, err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d contended=%v: %d comms, want %d", seed, contended, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				g.Start = 0
				if g != w {
					t.Fatalf("seed %d contended=%v: comm %d is %+v, sort.Slice order has %+v", seed, contended, i, got[i], w)
				}
			}
			checked += len(got)
		}
	}
	if checked == 0 {
		t.Fatal("no comms checked")
	}
}

// chained returns the probe case's task set with a dependence into each
// task from the nearest earlier task of a harmonic period, so that the
// placements of FuzzEarliestStart's corpus carry transfers.
func (c probeCase) chained() *model.TaskSet {
	ts := model.NewTaskSet()
	for i, pt := range c.tasks {
		id := ts.MustAddTask(fmt.Sprintf("t%d", i), pt.period, pt.wcet, 1)
		for j := i - 1; j >= 0; j-- {
			if q := c.tasks[j].period; q%pt.period == 0 || pt.period%q == 0 {
				ts.MustAddDependence(model.TaskID(j), id, 1)
				break
			}
		}
	}
	return ts.MustFreeze()
}

// TestLatencyOnlyCommsCannotFail pins the invariant Scheduler.runOnce
// relies on to skip deriving transfers in the latency-only model:
// DepLowerBounds starts every consumer at least C after each remote
// producer, so Comms after Run never misses a consumer. The inputs are
// generated sets (the paper-scale configuration among them) and
// FuzzEarliestStart's seed corpus with dependences added, at two
// communication times.
func TestLatencyOnlyCommsCannotFail(t *testing.T) {
	type input struct {
		kind  string // coverage is counted per kind
		i     int
		ts    *model.TaskSet
		procs int
	}
	inputs := []input{{"paper-scale", 0, gen.MustGenerate(gen.Config{
		Seed: 1, Tasks: 300, Utilization: 8, Periods: []model.Time{10, 20, 40, 80},
	}), 16}}
	for seed := 0; seed < 10; seed++ {
		inputs = append(inputs, input{"gen", seed,
			gen.MustGenerate(gen.Config{Seed: int64(seed), Tasks: 30 + 5*seed, Utilization: 3}), 5})
	}
	for i, c := range oracleCases() {
		inputs = append(inputs, input{"oracle", i, c.chained(), c.procs})
	}
	placed := map[string]int{}
	for _, in := range inputs {
		for _, c := range []model.Time{1, 3} {
			s, err := NewScheduler(in.ts, arch.MustNew(in.procs, c)).Run()
			if err != nil {
				continue // not schedulable: no transfers to check
			}
			cms, err := s.Comms()
			if err != nil {
				t.Fatalf("%s %d, C=%d: Comms after Run: %v", in.kind, in.i, c, err)
			}
			if len(cms) > 0 {
				placed[in.kind]++
			}
		}
	}
	t.Logf("runs placed with transfers: %v", placed)
	if placed["paper-scale"] != 2 || placed["gen"] == 0 || placed["oracle"] == 0 {
		t.Fatalf("coverage: runs placed with transfers %v", placed)
	}
}
