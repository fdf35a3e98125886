package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

// contendedSystem: two producers on P1/P2 feeding one consumer on P3,
// both transfers on the single bus in the same window.
func contendedSystem(t *testing.T, c model.Time, consumerStart model.Time) *Schedule {
	t.Helper()
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 20, 1, 1)
	b := ts.MustAddTask("b", 20, 1, 1)
	z := ts.MustAddTask("z", 20, 1, 1)
	ts.MustAddDependence(a, z, 1)
	ts.MustAddDependence(b, z, 1)
	ts.MustFreeze()
	ar := arch.MustNew(3, c)
	ar.ContendedMedia = true
	s := MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 0)
	s.MustPlace(z, 2, consumerStart)
	return s
}

func TestContendedMediaSerialisesTransfers(t *testing.T) {
	// Both transfers become ready at t=1, each takes 2; the bus must
	// serialise them: [1,3) and [3,5). Consumer at 5 is the tightest
	// feasible start.
	s := contendedSystem(t, 2, 5)
	cms, err := s.Comms()
	if err != nil {
		t.Fatalf("Comms: %v", err)
	}
	if len(cms) != 2 {
		t.Fatalf("got %d transfers, want 2", len(cms))
	}
	// Non-overlapping on the shared medium.
	a, b := cms[0], cms[1]
	if a.Start < b.End(s.Arch) && b.Start < a.End(s.Arch) {
		t.Errorf("transfers overlap on the bus: [%d,%d) and [%d,%d)",
			a.Start, a.End(s.Arch), b.Start, b.End(s.Arch))
	}
	if errs := s.Validate(); len(errs) > 0 {
		t.Fatalf("contended schedule invalid: %v", errs)
	}
}

func TestContendedMediaRejectsTooTight(t *testing.T) {
	// Consumer at 4: only one transfer fits before it under contention
	// (latency-only would accept: each transfer alone meets 1+2 ≤ 4).
	s := contendedSystem(t, 2, 4)
	if _, err := s.Comms(); err == nil {
		t.Fatal("bus contention not detected: two 2-unit transfers cannot both finish by 4")
	}
}

// TestValidateDerivesContendedMedia: a hand-placed contended schedule
// whose transfers cannot share the bus is invalid without anyone
// deriving its transfers first.
func TestValidateDerivesContendedMedia(t *testing.T) {
	s := contendedSystem(t, 2, 4)
	want := []ValidationError{{Kind: "medium",
		Msg: "transfer b#1→z#1 cannot complete by consumer start 4 (ready 1, C 2, medium Med)"}}
	if got := s.Validate(); !slices.Equal(got, want) {
		t.Fatalf("Validate = %v, want %v", got, want)
	}
}

func TestLatencyOnlyAcceptsSameWindow(t *testing.T) {
	// The default (paper) model has no bus contention: both transfers
	// overlap in time and the consumer at 4 is fine.
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 20, 1, 1)
	b := ts.MustAddTask("b", 20, 1, 1)
	z := ts.MustAddTask("z", 20, 1, 1)
	ts.MustAddDependence(a, z, 1)
	ts.MustAddDependence(b, z, 1)
	ts.MustFreeze()
	ar := arch.MustNew(3, 2) // ContendedMedia defaults to false
	s := MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 0)
	s.MustPlace(z, 2, 4)
	if _, err := s.Comms(); err != nil {
		t.Fatalf("latency-only model rejected a feasible window: %v", err)
	}
	if errs := s.Validate(); len(errs) > 0 {
		t.Fatalf("latency-only schedule invalid: %v", errs)
	}
}

// TestCommsFollowRePlacement: moving a consumer next to its producer
// removes its transfer; nothing derived earlier survives to be
// reported against the new placement.
func TestCommsFollowRePlacement(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 8, 1, 1)
	b := ts.MustAddTask("b", 8, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	s := MustNewSchedule(ts, arch.MustNew(2, 1))
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 2)
	if cms, err := s.Comms(); err != nil || len(cms) != 1 {
		t.Fatalf("across processors: %d transfers, err %v; want 1", len(cms), err)
	}
	s.MustPlace(b, 0, 1)
	if cms, err := s.Comms(); err != nil || len(cms) != 0 {
		t.Fatalf("co-located: %d transfers, err %v; want none", len(cms), err)
	}
	if errs := s.Validate(); len(errs) > 0 {
		t.Fatalf("co-located schedule invalid: %v", errs)
	}
}

// TestContendedMediaFoldModuloH: with H = 8 and C = 2, transfers at
// [7, 9) and [16, 18) share residue 0 on the bus. A linear timeline
// keeps both; in steady state they collide, so the second cannot be
// packed before its consumer.
func TestContendedMediaFoldModuloH(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 8, 1, 1)
	b := ts.MustAddTask("b", 8, 1, 1)
	c := ts.MustAddTask("c", 8, 1, 1)
	d := ts.MustAddTask("d", 8, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustAddDependence(c, d, 1)
	ts.MustFreeze()
	ar := arch.MustNew(2, 2)
	ar.ContendedMedia = true
	s := MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 6)  // [6, 7): transfer window [7, 9)
	s.MustPlace(c, 0, 15) // [15, 16) ≡ [7, 8): window [16, 18) ≡ [0, 2)
	s.MustPlace(b, 1, 9)
	s.MustPlace(d, 1, 18)
	if _, err := s.Comms(); err == nil || !strings.Contains(err.Error(), "transfer c#1→d#1 cannot complete by consumer start 18") {
		t.Fatalf("Comms = %v, want c#1→d#1 refused", err)
	}
	if !hasKind(s.Validate(), "medium") {
		t.Fatal("steady-state medium collision not reported")
	}
	// One unit later d has room: the second transfer packs at [17, 19),
	// clear of [7, 9)'s images.
	s.MustPlace(d, 1, 19)
	cms, err := s.Comms()
	if err != nil {
		t.Fatal(err)
	}
	if got := []model.Time{cms[0].Start, cms[1].Start}; !slices.Equal(got, []model.Time{7, 17}) {
		t.Fatalf("slots start at %v, want [7 17]", got)
	}
	if errs := s.Validate(); len(errs) > 0 {
		t.Fatalf("packed schedule invalid: %v", errs)
	}
}

// TestContendedCommEdges pins the transfer lengths at the edges of the
// ring: C = 0 occupies nothing, C = H fills the medium for one
// transfer, and C > H collides with the transfer's own next image.
func TestContendedCommEdges(t *testing.T) {
	// Two transfers in one instant: free with C = 0.
	s := contendedSystem(t, 0, 1)
	if cms, err := s.Comms(); err != nil || cms[0].Start != 1 || cms[1].Start != 1 {
		t.Fatalf("C=0: %v, %v; want both at 1", cms, err)
	}
	// C = H = 20: the first transfer takes the whole ring, the second
	// cannot fit however late its consumer starts.
	s = contendedSystem(t, 20, 80)
	if _, err := s.Comms(); err == nil || !strings.Contains(err.Error(), "cannot complete") {
		t.Fatalf("C=H, two transfers: %v, want refused", err)
	}
	one := func(c, consumer model.Time) *Schedule {
		ts := model.NewTaskSet()
		a := ts.MustAddTask("a", 20, 1, 1)
		z := ts.MustAddTask("z", 20, 1, 1)
		ts.MustAddDependence(a, z, 1)
		ts.MustFreeze()
		ar := arch.MustNew(2, c)
		ar.ContendedMedia = true
		s := MustNewSchedule(ts, ar)
		s.MustPlace(a, 0, 0)
		s.MustPlace(z, 1, consumer)
		return s
	}
	s = one(20, 21)
	if cms, err := s.Comms(); err != nil || cms[0].Start != 1 {
		t.Fatalf("C=H, one transfer: %v, %v; want it at 1", cms, err)
	}
	if errs := s.Validate(); len(errs) > 0 {
		t.Fatalf("C=H, one transfer: %v", errs)
	}
	s = one(21, 22)
	if _, err := s.Comms(); err == nil || !strings.Contains(err.Error(), "longer than the hyper-period 20") {
		t.Fatalf("C>H: %v, want refused", err)
	}
	if !hasKind(s.Validate(), "medium") {
		t.Fatal("C>H: Validate reports no medium fault")
	}
}

func TestContentionValidationFlagsOverlaps(t *testing.T) {
	s := contendedSystem(t, 2, 5)
	cms, err := s.Comms()
	if err != nil {
		t.Fatal(err)
	}
	// Forge an overlap by moving the second transfer onto the first, and
	// onto the first's image one hyper-period later.
	for _, shift := range []model.Time{0, s.TS.HyperPeriod()} {
		forged := slices.Clone(cms)
		forged[1].Start = forged[0].Start + shift
		var got []string
		s.mediaConflicts(forged, func(a, b Comm) {
			got = append(got, s.instName(a.Src)+"/"+s.instName(b.Src))
		})
		if want := []string{"a#1/b#1"}; !slices.Equal(got, want) {
			t.Errorf("forged overlap at +%d: conflicts %q, want %q", shift, got, want)
		}
	}
	var none int
	s.mediaConflicts(cms, func(Comm, Comm) { none++ })
	if none != 0 {
		t.Fatalf("packed transfers reported as %d conflicts", none)
	}
}

// foldMeet reports whether [a, a+c) and [b, b+c) meet at some image
// k·H of the second — tried image by image.
func foldMeet(a, b, c, h model.Time) bool {
	base := (a - b) / h
	for k := base - 2; k <= base+2; k++ {
		if a < b+k*h+c && b+k*h < a+c {
			return true
		}
	}
	return false
}

// packOracle searches every start of every transfer in its window
// (starts beyond ready+H−1 repeat a residue) for a set of slots that
// meet on no medium at any image. It returns ok = false when the search
// gives up after budget steps.
func packOracle(s *Schedule, cms []Comm, budget int) (feasible, ok bool) {
	c, h := s.Arch.CommTime, s.TS.HyperPeriod()
	type win struct{ lo, hi model.Time }
	wins := make([]win, len(cms))
	for i, cm := range cms {
		lo := s.InstanceEnd(cm.Src.Task, cm.Src.K)
		wins[i] = win{lo, min(s.InstanceStart(cm.Dst.Task, cm.Dst.K)-c, lo+h-1)}
	}
	// Narrow windows first: dead ends show early.
	order := make([]int, len(cms))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return int((wins[x].hi - wins[x].lo) - (wins[y].hi - wins[y].lo)) })
	starts := make([]model.Time, len(cms))
	var search func(n int) bool
	search = func(n int) bool {
		if n == len(order) {
			return true
		}
		i := order[n]
		for x := wins[i].lo; x <= wins[i].hi; x++ {
			if budget--; budget < 0 {
				return false
			}
			clash := false
			for _, j := range order[:n] {
				if cms[j].Medium == cms[i].Medium && foldMeet(x, starts[j], c, h) {
					clash = true
					break
				}
			}
			if !clash {
				starts[i] = x
				if search(n + 1) {
					return true
				}
			}
		}
		return false
	}
	feasible = search(0)
	return feasible, budget >= 0
}

// FuzzContendedComms checks Comms on small random contended systems
// against brute force. Two to five tasks on the ladder {4, 8, 16}, each
// fed by a random earlier task, are placed in order at their dependence
// bound plus random slack on random processors (processor overlap is
// irrelevant to the media), with C from 0 to 3 and sometimes a second
// medium between P1 and P2. Whenever Comms succeeds:
//
//   - every slot lies inside [producer end, consumer start − C];
//   - no two slots on one medium meet at any image k·H.
//
// When the packing oracle can place the transfer set, Comms must too,
// where EDF packing is exact: every transfer on a medium shares one
// ready time (EDF order back to back, Jackson's rule), or C = 1 and
// every window lies inside [0, H), where deadline order with earliest
// fit is the exact greedy for unit slots. Outside those two regimes
// EDF is a heuristic. With windows written [ready, consumer start]: at
// C = 2, [2, 5], [1, 6] and [1, 7] pack at 3, 1 and 5, but EDF takes 2
// and 4 and misses the third; at C = 1 and H = 8, [1, 8] and [9, 10]
// pack at 2 and 9, but EDF gives the first residue 1.
func FuzzContendedComms(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(1), uint8(2))
	f.Add(uint64(7), uint8(5), uint8(2), uint8(1))
	f.Add(uint64(42), uint8(4), uint8(3), uint8(3))
	f.Add(uint64(99), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(1234567), uint8(5), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, tasks, procs, comm uint8) {
		next := func(n uint64) model.Time { // splitmix64, deterministic per seed
			seed += 0x9e3779b97f4a7c15
			z := seed
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return model.Time((z ^ z>>31) % n)
		}
		ladder := []model.Time{4, 8, 16}
		ts := model.NewTaskSet()
		n := 2 + int(tasks)%4
		for i := 0; i < n; i++ {
			id := ts.MustAddTask(fmt.Sprintf("t%d", i), ladder[next(3)], 1+next(2), 1)
			if i > 0 && next(4) > 0 {
				ts.MustAddDependence(model.TaskID(next(uint64(i))), id, 1)
			}
		}
		ts.MustFreeze()
		m := 2 + int(procs)%3
		ar := arch.MustNew(m, model.Time(comm)%4)
		ar.ContendedMedia = true
		if procs&4 != 0 {
			if _, err := ar.AddMedium("link", 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		h := ts.HyperPeriod()
		s := MustNewSchedule(ts, ar)
		lbs := make([]model.Time, m)
		for i := 0; i < n; i++ {
			id := model.TaskID(i)
			p := arch.ProcID(next(uint64(m)))
			s.DepLowerBounds(id, lbs)
			s.MustPlace(id, p, lbs[p]+next(uint64(h/2)))
		}

		var cross []Comm
		s.eachCrossDep(func(cm Comm) { cross = append(cross, cm) })
		cms, err := s.Comms()
		if err == nil {
			c := ar.CommTime
			for i, cm := range cms {
				ready, deadline := s.InstanceEnd(cm.Src.Task, cm.Src.K), s.InstanceStart(cm.Dst.Task, cm.Dst.K)
				if cm.Start < ready || cm.Start+c > deadline {
					t.Fatalf("slot %s→%s [%d,%d) outside [%d,%d]", s.instName(cm.Src), s.instName(cm.Dst), cm.Start, cm.Start+c, ready, deadline)
				}
				for _, o := range cms[:i] {
					if c > 0 && o.Medium == cm.Medium && foldMeet(cm.Start, o.Start, c, h) {
						t.Fatalf("slots %s→%s at %d and %s→%s at %d meet modulo %d on %s", s.instName(cm.Src), s.instName(cm.Dst), cm.Start,
							s.instName(o.Src), s.instName(o.Dst), o.Start, h, ar.MediumName(cm.Medium))
					}
				}
			}
			if errs := s.Validate(); hasKind(errs, "medium") {
				t.Fatalf("packed transfers fail Validate: %v", errs)
			}
			return
		}
		if len(cross) == 0 {
			t.Fatalf("Comms failed with no transfers: %v", err)
		}
		if !edfExact(s, cross) {
			return
		}
		if feasible, ok := packOracle(s, cross, 1<<16); ok && feasible {
			t.Fatalf("oracle packs %d transfers, Comms refused: %v", len(cross), err)
		}
	})
}

// edfExact reports whether EDF packing is exact for the transfers (see
// FuzzContendedComms): one ready time per medium, or C = 1 with every
// window inside [0, H).
func edfExact(s *Schedule, cms []Comm) bool {
	ready := map[arch.MediumID]model.Time{}
	common, unitLinear := true, s.Arch.CommTime == 1
	for _, cm := range cms {
		r := s.InstanceEnd(cm.Src.Task, cm.Src.K)
		if r0, seen := ready[cm.Medium]; seen && r0 != r {
			common = false
		}
		ready[cm.Medium] = r
		if s.InstanceStart(cm.Dst.Task, cm.Dst.K) > s.TS.HyperPeriod() {
			unitLinear = false
		}
	}
	return common || unitLinear
}
