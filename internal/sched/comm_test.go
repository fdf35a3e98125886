package sched

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
)

// refCrossDeps is CrossDeps' former form, expanding every dependence
// through the allocating model.InstanceDeps.
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

// refCommOrder sorts cross dependences with DeriveComms' former
// closure comparator.
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

// TestDeriveCommsOrderMatchesSortSlice pins Comms() order on generated
// schedules to the former sort.Slice order, under both medium models,
// and CrossDeps to its former expansion.
func TestDeriveCommsOrderMatchesSortSlice(t *testing.T) {
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
			if got := s.CrossDeps(); !slices.Equal(got, want) {
				t.Fatalf("seed %d: CrossDeps differs from the InstanceDeps expansion", seed)
			}
			refCommOrder(s, want)
			got := s.Comms()
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
