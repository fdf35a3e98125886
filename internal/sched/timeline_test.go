package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

// refEarliestStart is the pre-timeline formulation of EarliestStart: the
// pairwise modulo-gcd compatibility sweep over every co-resident task
// (the paper's reference [1]). The ring implementation must agree with
// it on every query; this file keeps the old code as the oracle.
func refEarliestStart(s *Schedule, id model.TaskID, p arch.ProcID, lower model.Time) (model.Time, bool) {
	t := s.TS.Task(id)
	limit := lower + s.TS.HyperPeriod()
	others := s.TasksOn(p)

	start := lower
	for start <= limit {
		bumped := false
		for _, other := range others {
			if other == id {
				continue
			}
			ot := s.TS.Task(other)
			os := s.Placement(other).Start
			if model.Compatible(os, ot.Period, ot.WCET, start, t.Period, t.WCET) {
				continue
			}
			next, ok := model.FirstCompatibleAtLeast(os, ot.Period, ot.WCET, t.Period, t.WCET, start+1)
			if !ok {
				return 0, false
			}
			if next > start {
				start = next
				bumped = true
			}
		}
		if !bumped {
			return start, true
		}
	}
	return 0, false
}

func refFitsAt(s *Schedule, id model.TaskID, p arch.ProcID, start model.Time) bool {
	t := s.TS.Task(id)
	for _, other := range s.TasksOn(p) {
		if other == id {
			continue
		}
		ot := s.TS.Task(other)
		if !model.Compatible(s.Placement(other).Start, ot.Period, ot.WCET, start, t.Period, t.WCET) {
			return false
		}
	}
	return true
}

// The image-by-image search the rings replaced, kept as a second
// reference: every placed task contributes the wrapped (mod H) intervals
// of its instances to a tagged timeline sorted by start, and the search
// hops the candidate start past the latest-ending conflict of any image
// until every image is clear.

// occIvl is one occupied interval of a tagged timeline.
type occIvl struct {
	start, end model.Time
	task       model.TaskID
}

// hopTimelines builds the tagged timeline of every processor from the
// schedule's placements.
func hopTimelines(s *Schedule) [][]occIvl {
	occ := make([][]occIvl, s.Arch.Procs)
	h := s.TS.HyperPeriod()
	for i, pl := range s.place {
		if pl.Proc == Unplaced {
			continue
		}
		id := model.TaskID(i)
		t := s.TS.Task(id)
		for k := 0; k < s.TS.Instances(id); k++ {
			r := model.Mod(pl.Start+model.Time(k)*t.Period, h)
			if e := r + t.WCET; e <= h {
				occ[pl.Proc] = append(occ[pl.Proc], occIvl{r, e, id})
			} else { // image wraps the hyper-period boundary: split
				occ[pl.Proc] = append(occ[pl.Proc], occIvl{r, h, id}, occIvl{0, e - h, id})
			}
		}
	}
	for _, o := range occ {
		slices.SortFunc(o, func(a, b occIvl) int { return int(a.start - b.start) })
	}
	return occ
}

// occConflict reports whether [x, y) ⊂ [0, H) overlaps an interval of a
// task other than id, and if so returns the end of the latest-ending
// such interval. The timeline is sorted by start and disjoint, so ends
// are sorted too.
func occConflict(occ []occIvl, id model.TaskID, x, y model.Time) (model.Time, bool) {
	lo, hi := 0, len(occ)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if occ[mid].start >= y {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for i := lo - 1; i >= 0 && occ[i].end > x; i-- {
		if occ[i].task != id {
			return occ[i].end, true
		}
	}
	return 0, false
}

// imageConflict returns the minimal forward shift of the candidate start
// that clears every detected conflict of one instance image wrapped to
// r ∈ [0, H), or 0 when the image is conflict-free.
func imageConflict(occ []occIvl, id model.TaskID, r, wcet, h model.Time) model.Time {
	var bump model.Time
	e := r + wcet
	if end, hit := occConflict(occ, id, r, min(e, h)); hit {
		bump = end - r
	}
	if e > h { // wrapped tail [0, e−h)
		if end, hit := occConflict(occ, id, 0, e-h); hit {
			bump = max(bump, end-r+h)
		}
	}
	return bump
}

func hopEarliestStartIn(s *Schedule, occ []occIvl, id model.TaskID, lower, bound model.Time) (model.Time, bool) {
	t := s.TS.Task(id)
	h := s.TS.HyperPeriod()
	limit := min(lower+h, bound)
	for start := lower; start <= limit; {
		var bump model.Time
		base := model.Mod(start, t.Period)
		for j := 0; j < s.TS.Instances(id); j++ {
			bump = max(bump, imageConflict(occ, id, base+model.Time(j)*t.Period, t.WCET, h))
		}
		if bump == 0 {
			return start, true
		}
		start += bump
	}
	return 0, false
}

// probeCase is one oracle configuration: a processor count and, per
// task, its period and WCET plus the processor and lower bound it is
// placed with. It round-trips through the byte form FuzzEarliestStart
// decodes.
type probeCase struct {
	procs int
	tasks []probeTask
}

type probeTask struct {
	period, wcet model.Time
	proc         arch.ProcID
	lower        model.Time
}

const (
	probeMaxTasks  = 10
	probeMaxPeriod = 24
	probeMaxProcs  = 4
)

// decodeProbeCase reads a processor count byte, then four bytes per
// task (period, WCET, processor, lower bound), reducing each into range:
// at most 10 tasks, periods 1–24, 1 ≤ WCET ≤ period, 1–4 processors,
// lower bounds 0–255.
func decodeProbeCase(data []byte) (probeCase, bool) {
	if len(data) < 5 {
		return probeCase{}, false
	}
	c := probeCase{procs: 1 + int(data[0])%probeMaxProcs}
	for b := data[1:]; len(b) >= 4 && len(c.tasks) < probeMaxTasks; b = b[4:] {
		period := 1 + model.Time(b[0])%probeMaxPeriod
		c.tasks = append(c.tasks, probeTask{
			period: period,
			wcet:   1 + model.Time(b[1])%period,
			proc:   arch.ProcID(int(b[2]) % c.procs),
			lower:  model.Time(b[3]),
		})
	}
	return c, true
}

// encode is the inverse of decodeProbeCase for in-range cases.
func (c probeCase) encode() []byte {
	out := []byte{byte(c.procs - 1)}
	for _, pt := range c.tasks {
		out = append(out, byte(pt.period-1), byte(pt.wcet-1), byte(pt.proc), byte(pt.lower))
	}
	return out
}

func (c probeCase) taskSet() *model.TaskSet {
	ts := model.NewTaskSet()
	for i, pt := range c.tasks {
		ts.MustAddTask(fmt.Sprintf("t%d", i), pt.period, pt.wcet, 1)
	}
	return ts.MustFreeze()
}

// probeFamilies are the period families the oracle cases draw from:
// harmonic ladders and non-harmonic sets, all within the fuzz range.
var probeFamilies = [][]model.Time{
	{6, 12, 24}, {2, 4, 8, 16}, {5, 10, 20},
	{4, 6, 10}, {3, 5}, {7, 14, 21}, {2, 9},
}

// oracleCases returns the configurations TestTimelineMatchesCompatibility
// Oracle drives; they also seed FuzzEarliestStart's corpus. About one
// task in eight has WCET = period (a full ring), and lower bounds reach
// up to twice the hyper-period.
func oracleCases() []probeCase {
	var out []probeCase
	for f, fam := range probeFamilies {
		for seed := int64(0); seed < 24; seed++ {
			rng := rand.New(rand.NewSource(int64(f)*1000 + seed))
			c := probeCase{procs: 1 + int(seed)%probeMaxProcs}
			n := 4 + rng.Intn(probeMaxTasks-3)
			h := model.Time(1)
			for i := 0; i < n; i++ {
				period := fam[rng.Intn(len(fam))]
				h = model.LCM(h, period)
				wcet := min(period, 1+model.Time(rng.Intn(3)))
				if rng.Intn(8) == 0 {
					wcet = period
				}
				c.tasks = append(c.tasks, probeTask{period: period, wcet: wcet, proc: arch.ProcID(rng.Intn(c.procs))})
			}
			for i := range c.tasks {
				c.tasks[i].lower = model.Time(rng.Intn(int(min(2*h, 255)) + 1))
			}
			out = append(out, c)
		}
	}
	return out
}

// hopMaxHyper bounds the hyper-periods checked against the image-by-image
// reference, which walks H/T images per probe.
const hopMaxHyper = 1 << 7

// checkProbeCase places the case's tasks in order, each at its earliest
// start on its processor, and before every placement compares each
// processor's EarliestStart and FitsAt answers against the modulo-gcd
// oracle (FitsAt at every start below min(H, 64), which covers every
// residue) and, for small hyper-periods, earliestStartIn under several
// bounds against the image-by-image search. It returns the schedule.
func checkProbeCase(t *testing.T, name string, c probeCase) *Schedule {
	t.Helper()
	ts := c.taskSet()
	s := MustNewSchedule(ts, arch.MustNew(c.procs, 1))
	h := ts.HyperPeriod()
	for i, pt := range c.tasks {
		id := model.TaskID(i)
		var hop [][]occIvl
		if h <= hopMaxHyper {
			hop = hopTimelines(s)
		}
		for p := arch.ProcID(0); int(p) < c.procs; p++ {
			checkProbes(t, name, s, hop, id, p, pt.lower)
		}
		start, err := s.EarliestStart(id, pt.proc, pt.lower)
		if err != nil {
			continue
		}
		s.MustPlace(id, pt.proc, start)
		if _, err := s.EarliestStart(id, pt.proc, 0); err == nil || s.FitsAt(id, pt.proc, start) {
			t.Fatalf("%s: task %d answered a probe on its own processor P%d", name, id, pt.proc)
		}
	}
	return s
}

// checkProbes compares one (task, processor) pair against the references.
func checkProbes(t *testing.T, name string, s *Schedule, hop [][]occIvl, id model.TaskID, p arch.ProcID, lower model.Time) {
	t.Helper()
	h := s.TS.HyperPeriod()
	for start := model.Time(0); start < min(h, 64); start++ {
		got := s.FitsAt(id, p, start)
		if want := refFitsAt(s, id, p, start); got != want {
			t.Fatalf("%s: FitsAt(%d, P%d, %d) = %v, oracle %v", name, id, p, start, got, want)
		}
		if hop != nil {
			_, want := hopEarliestStartIn(s, hop[p], id, start, start)
			if got != want {
				t.Fatalf("%s: FitsAt(%d, P%d, %d) = %v, image search %v", name, id, p, start, got, want)
			}
		}
	}
	got, err := s.EarliestStart(id, p, lower)
	want, ok := refEarliestStart(s, id, p, lower)
	if (err == nil) != ok || (ok && got != want) {
		t.Fatalf("%s: EarliestStart(%d, P%d, %d) = %d, %v; oracle %d, %v", name, id, p, lower, got, err, want, ok)
	}
	if hop == nil {
		return
	}
	for _, bound := range []model.Time{lower - 1, lower, lower + 1, lower + 3, want, want - 1, lower + h, lower + 2*h} {
		got, gotOK := s.earliestStartIn(id, p, lower, bound)
		want, wantOK := hopEarliestStartIn(s, hop[p], id, lower, bound)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("%s: earliestStartIn(%d, P%d, %d, %d) = %d, %v; image search %d, %v",
				name, id, p, lower, bound, got, gotOK, want, wantOK)
		}
	}
}

// TestTimelineMatchesCompatibilityOracle drives randomly built partial
// schedules over harmonic and non-harmonic period families on 1–4
// processors and checks that the ring-backed EarliestStart and FitsAt
// return exactly what the modulo-gcd oracle and the image-by-image
// search return, probe by probe. It then re-places tasks through Place
// (the ring rebuild path) and checks the rebuilt rings against rings
// folded from scratch, and every answer against the oracle again.
func TestTimelineMatchesCompatibilityOracle(t *testing.T) {
	var probes, replaced, fullRing, wrapLower int
	for ci, c := range oracleCases() {
		name := fmt.Sprintf("case %d %v", ci, c)
		s := checkProbeCase(t, name, c)
		h := s.TS.HyperPeriod()
		for _, pt := range c.tasks {
			if pt.wcet == pt.period {
				fullRing++
			}
			if pt.lower >= h {
				wrapLower++
			}
		}
		probes += len(c.tasks) * c.procs

		rng := rand.New(rand.NewSource(int64(ci)))
		for round := 0; round < 6; round++ {
			id := model.TaskID(rng.Intn(s.TS.Len()))
			if s.Placement(id).Proc == Unplaced {
				continue
			}
			// The oracle ignores the task's own occupancy, so it finds a
			// start that is feasible once the task has left its old slot.
			q := arch.ProcID(rng.Intn(c.procs))
			start, ok := refEarliestStart(s, id, q, model.Time(rng.Intn(int(h)+1)))
			if !ok {
				continue
			}
			s.MustPlace(id, q, start)
			replaced++
			checkRingsFresh(t, name, s)
			hop := hopTimelines(s)
			for i := 0; i < s.TS.Len(); i++ {
				other := model.TaskID(i)
				for p := arch.ProcID(0); int(p) < c.procs; p++ {
					if s.Placement(other).Proc != p {
						checkProbes(t, name, s, hop, other, p, model.Time(rng.Intn(int(2*h)+1)))
					}
				}
			}
		}
	}
	if replaced == 0 || fullRing == 0 || wrapLower == 0 {
		t.Fatalf("coverage: %d re-placements, %d full-ring tasks, %d lower ≥ H probes", replaced, fullRing, wrapLower)
	}
	t.Logf("%d placement rounds probed, %d re-placements, %d full-ring tasks, %d lower ≥ H", probes, replaced, fullRing, wrapLower)
}

// checkRingsFresh requires s's rings to equal those of a schedule that
// folds the same placements from scratch (rings are canonical: sorted,
// merged spans).
func checkRingsFresh(t *testing.T, name string, s *Schedule) {
	t.Helper()
	fresh := MustNewSchedule(s.TS, s.Arch)
	for i := 0; i < s.TS.Len(); i++ {
		if pl := s.Placement(model.TaskID(i)); pl.Proc != Unplaced {
			fresh.MustPlace(model.TaskID(i), pl.Proc, pl.Start)
		}
	}
	for k := range s.rings {
		if !slices.Equal(s.rings[k], fresh.rings[k]) {
			t.Fatalf("%s: ring %d after re-placement %v, folded from scratch %v", name, k, s.rings[k], fresh.rings[k])
		}
	}
}

// TestRingFoldWrapsAndFills pins the span bookkeeping on hand-computed
// rings: an image running past the ring's period wraps to its start,
// touching spans merge, and a WCET covering the gcd fills the ring.
func TestRingFoldWrapsAndFills(t *testing.T) {
	var r ring
	r = r.fold(10, 8, 20, 3) // one image [8, 11) → [8, 10) + [0, 1)
	if want := (ring{{0, 1}, {8, 10}}); !slices.Equal(r, want) {
		t.Fatalf("wrapped fold = %v, want %v", r, want)
	}
	r = r.fold(10, 1, 10, 2) // [1, 3) touches [0, 1): merged
	if want := (ring{{0, 3}, {8, 10}}); !slices.Equal(r, want) {
		t.Fatalf("touching fold = %v, want %v", r, want)
	}
	if x, ok := r.firstFit(10, 9, 2, 9); !ok || x != 13 {
		t.Fatalf("firstFit from 9 = %d, %v; want 13 (the gap [3, 8) one period on)", x, ok)
	}
	if _, ok := r.firstFit(10, 0, 6, 9); ok {
		t.Fatal("a 6-unit window fits no 5-unit gap")
	}
	r = r.fold(10, 4, 4, 2) // gcd 2, WCET 2: the ring is full
	if want := (ring{{0, 10}}); !slices.Equal(r, want) {
		t.Fatalf("covering fold = %v, want %v", r, want)
	}
	if _, ok := r.firstFit(10, 3, 1, 9); ok {
		t.Fatal("firstFit on a full ring succeeded")
	}
}

// FuzzEarliestStart decodes small task sets (at most 10 tasks, arbitrary
// periods 1–24, 1–4 processors), places them as
// TestTimelineMatchesCompatibilityOracle does, and requires every
// EarliestStart and FitsAt answer to equal the modulo-gcd oracle (and
// the image-by-image search when the hyper-period is small). The seed
// corpus is the oracle test's configurations.
func FuzzEarliestStart(f *testing.F) {
	for _, c := range oracleCases() {
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeProbeCase(data)
		if !ok {
			return
		}
		// The oracle walks the candidate start forward through up to a
		// whole hyper-period; keep that walk short.
		if c.taskSet().HyperPeriod() > 1<<16 {
			return
		}
		checkProbeCase(t, fmt.Sprintf("%v", c), c)
	})
}
