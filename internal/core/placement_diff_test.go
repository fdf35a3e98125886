package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
)

// The reference implementations below are the balancer's placement
// queries as plain linear scans over the processor's occupancy, read
// from the static block lists rather than from the indexes under test:
// every processed block on the processor is a moved interval, and every
// member of another unprocessed block on it a reservation. Producer
// bounds are recomputed per processor. The indexed production queries
// must agree with them on every answer.

// ivl is one occupied interval on a processor timeline.
type ivl struct{ start, end model.Time }

// eachBlockOn calls fn for every block on p except the one being placed,
// with whether it is processed (a moved interval) or not (a reservation).
// Each block is listed under every task it holds; it is visited once,
// under the task of its first member.
func eachBlockOn(c *pctx, p arch.ProcID, fn func(bl *blocks.Block, processed bool)) {
	for t, list := range c.st.taskBlocks {
		for _, bl := range list {
			if bl.Members[0].Inst.Task == model.TaskID(t) && bl.Proc == p && bl != c.bl {
				fn(bl, c.processed[bl.ID])
			}
		}
	}
}

// refConflictFree also reports whether the conflict it found came from a
// ±H image and whether it came from a member shifting along.
func refConflictFree(c *pctx, p arch.ProcID, s model.Time) (free, wrapped, shifted bool) {
	h := c.ts.HyperPeriod()
	sOld := c.bl.Start()
	gain := sOld - s
	span := c.bl.End(c.ts) - sOld
	end := s + span

	free = true
	eachBlockOn(c, p, func(other *blocks.Block, processed bool) {
		if !free {
			return
		}
		if processed {
			for _, d := range [3]model.Time{0, h, -h} {
				if s < other.End(c.ts)+d && other.Start()+d < end {
					free, wrapped = false, d != 0
					return
				}
			}
			return
		}
		lo, hi := other.Start(), other.End(c.ts)
		if gain >= 0 {
			lo -= gain
		} else {
			hi -= gain
		}
		overlapsEnvelope := false
		for _, d := range [3]model.Time{0, h, -h} {
			if s < hi+d && lo+d < end {
				overlapsEnvelope = true
				break
			}
		}
		if !overlapsEnvelope {
			return
		}
		for _, m := range other.Members {
			pos := m.Start
			if c.shifts(m.Inst.Task) {
				pos -= gain
			}
			w := c.st.wcet[m.Inst.Task]
			for _, d := range [3]model.Time{0, h, -h} {
				if s < pos+w+d && pos+d < end {
					free, wrapped, shifted = false, d != 0, c.shifts(m.Inst.Task)
					return
				}
			}
		}
	})
	return free, wrapped, shifted
}

// fitTrace records what refEarliestConflictFree saw: whether a single
// pass over the six runs (moved intervals and reservations, each at
// offsets 0, +H and −H) would have stopped short of the answer, whether
// the last jump came from a ±H image, and how many obstacles in the
// window start at or beyond 2H.
type fitTrace struct {
	multiRound, wrapDecided bool
	beyond2H                int
}

// tagged is one obstacle image with the run it belongs to: run = 3·i + j
// for the index i (0 moved, 1 reserved) and the offset j of {0, +H, −H}.
type tagged struct {
	ivl
	run int
}

func refEarliestConflictFree(c *pctx, p arch.ProcID, lb, cap model.Time) (model.Time, bool, fitTrace) {
	var tr fitTrace
	h := c.ts.HyperPeriod()
	sOld := c.bl.Start()
	span := c.bl.End(c.ts) - sOld
	offs := [3]model.Time{0, h, -h}

	if c.cat1 {
		collides := false
		eachBlockOn(c, p, func(other *blocks.Block, processed bool) {
			if processed {
				return
			}
			for _, m := range other.Members {
				if !c.st.shifted[m.Inst.Task] {
					continue
				}
				w := c.ts.Task(m.Inst.Task).WCET
				for _, d := range offs {
					if sOld < m.Start+w+d && m.Start+d < sOld+span {
						collides = true
					}
				}
			}
		})
		if collides {
			return 0, false, tr
		}
	}

	wHi := cap + span
	var obst []tagged
	add := func(index int, start, end model.Time) {
		for j, d := range offs {
			if end+d > lb && start+d < wHi {
				obst = append(obst, tagged{ivl{start + d, end + d}, 3*index + j})
				if start >= 2*h {
					tr.beyond2H++
				}
			}
		}
	}
	eachBlockOn(c, p, func(other *blocks.Block, processed bool) {
		if processed {
			add(0, other.Start(), other.End(c.ts))
			return
		}
		lo, hi := other.Start(), other.End(c.ts)
		inWindow := false
		for _, d := range offs {
			if hi+d > lb && lo+d < wHi {
				inWindow = true
				break
			}
		}
		if !inWindow {
			return
		}
		for _, m := range other.Members {
			if c.shifts(m.Inst.Task) {
				continue
			}
			add(1, m.Start, m.Start+c.st.wcet[m.Inst.Task])
		}
	})
	slices.SortFunc(obst, func(a, b tagged) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.end, b.end)
	})

	s, lastRun := lb, -1
	for _, ob := range obst {
		if ob.start >= s+span {
			break
		}
		if ob.end > s {
			s, lastRun = ob.end, ob.run
		}
	}
	tr.wrapDecided = lastRun >= 0 && lastRun%3 != 0

	// One pass over the runs in sweep order, each run visited once.
	one := lb
	for run := 0; run < 6; run++ {
		for _, ob := range obst {
			if ob.run != run {
				continue
			}
			if ob.start >= one+span {
				break
			}
			if ob.end > one {
				one = ob.end
			}
		}
	}
	tr.multiRound = one != s

	if s <= cap {
		return s, true, tr
	}
	return 0, false, tr
}

// refPropagationCap is propagationCap as a linear scan over the static
// block lists.
func refPropagationCap(c *pctx) model.Time {
	if !c.cat1 {
		return 0
	}
	h := c.ts.HyperPeriod()
	cap := h
	offs := [3]model.Time{0, h, -h}
	for p := arch.ProcID(0); int(p) < c.ar.Procs; p++ {
		eachBlockOn(c, p, func(other *blocks.Block, processed bool) {
			if processed {
				return
			}
			for _, m := range other.Members {
				if !c.st.shifted[m.Inst.Task] {
					continue
				}
				model.EachInstanceDep(c.ts, m.Inst.Task, m.Inst.K, func(src model.InstanceID) {
					if c.st.shifted[src.Task] {
						return
					}
					ref := c.st.owner[c.ts.InstanceIndex(src)]
					end := ref.bl.Members[ref.mi].Start + c.ts.Task(src.Task).WCET
					if c.conservative {
						end += c.ar.CommTime
					}
					cap = min(cap, m.Start-end)
				})
				mEnd := m.Start + c.ts.Task(m.Inst.Task).WCET
				eachBlockOn(c, p, func(nb *blocks.Block, nbProcessed bool) {
					if nbProcessed {
						for _, d := range offs {
							if nb.End(c.ts)+d <= m.Start {
								cap = min(cap, m.Start-(nb.End(c.ts)+d))
							} else if nb.Start()+d < mEnd && m.Start < nb.End(c.ts)+d {
								cap = 0
							}
						}
						return
					}
					for _, nm := range nb.Members {
						if c.st.shifted[nm.Inst.Task] {
							continue
						}
						nEnd := nm.Start + c.ts.Task(nm.Inst.Task).WCET
						for _, d := range offs {
							if nEnd+d <= m.Start {
								cap = min(cap, m.Start-(nEnd+d))
							}
						}
					}
				})
			}
		})
	}
	return max(cap, 0)
}

func refDepBounds(c *pctx, p arch.ProcID) (movedLB, conservativeLB model.Time) {
	ts, ar, bl, st := c.ts, c.ar, c.bl, c.st
	sOld := bl.Start()
	for _, m := range bl.Members {
		off := m.Start - sOld
		model.EachInstanceDep(ts, m.Inst.Task, m.Inst.K, func(src model.InstanceID) {
			ref := st.owner[ts.InstanceIndex(src)]
			if ref.bl == bl {
				return
			}
			end := ref.bl.Members[ref.mi].Start + ts.Task(src.Task).WCET
			if c.processed[ref.bl.ID] {
				delay := model.Time(0)
				if ref.bl.Proc != p {
					delay = ar.CommTime
				}
				if v := end + delay - off; v > movedLB {
					movedLB = v
				}
			} else {
				if v := end + ar.CommTime - off; v > conservativeLB {
					conservativeLB = v
				}
			}
		})
	}
	return movedLB, conservativeLB
}

// diffTally counts what the differential probes exercised, so the test
// can insist its coverage is not vacuous.
type diffTally struct {
	steps, conflicts, frees, wrapped, shifted, negGainConflicts, negGainFrees int
	fits, noFits, movedProducers, caps                                        int
	multiRound, wrapDecided, beyond2H                                         int
}

// checkPlacementQueries compares every indexed query with its reference
// for every processor at the current placement step.
func checkPlacementQueries(t *testing.T, ctx *pctx, tally *diffTally) {
	t.Helper()
	h := ctx.ts.HyperPeriod()
	sOld := ctx.bl.Start()
	span := ctx.bl.End(ctx.ts) - sOld
	gotCap, wantCap := ctx.propagationCap(), refPropagationCap(ctx)
	if gotCap != wantCap {
		t.Fatalf("block %d: propagationCap = %d, linear scan %d", ctx.bl.ID, gotCap, wantCap)
	}
	if wantCap > 0 {
		tally.caps++
	}
	capped := sOld - wantCap
	tally.steps++

	starts := []model.Time{0, 1, capped, h - span, h - 1, h, -span + 1, -h, -h / 2, sOld - h/2, sOld + h/2, 2*h - span}
	for d := model.Time(-8); d <= 4; d++ {
		starts = append(starts, sOld+d) // d > 0: negative gain
	}
	// The reservation indexes hold exactly the members of the other
	// unprocessed blocks, each once, on its block's processor and keyed by
	// its current start.
	for p := range ctx.st.resv {
		rv := &ctx.st.resv[p]
		want := 0
		eachBlockOn(ctx, arch.ProcID(p), func(other *blocks.Block, processed bool) {
			if !processed {
				want += len(other.Members)
			}
		})
		if len(rv.items) != want {
			t.Fatalf("block %d: reservation index of P%d holds %d members, want %d", ctx.bl.ID, p, len(rv.items), want)
		}
		seen := make(map[ownerRef]bool, len(rv.items))
		for k, it := range rv.items {
			m := it.bl.Members[it.mi]
			if it.bl.Proc != arch.ProcID(p) || ctx.processed[it.bl.ID] || it.bl == ctx.bl ||
				rv.starts[k] != m.Start || it.task != m.Inst.Task || seen[it.ownerRef] {
				t.Fatalf("block %d: reservation index of P%d holds member %d of block %d (P%d, start %d, task %d, repeated %v) under key %d, task %d",
					ctx.bl.ID, p, it.mi, it.bl.ID, it.bl.Proc, m.Start, m.Inst.Task, seen[it.ownerRef], rv.starts[k], it.task)
			}
			seen[it.ownerRef] = true
		}
	}

	for p := arch.ProcID(0); int(p) < ctx.ar.Procs; p++ {
		gotMoved, gotCons := ctx.depBounds(p)
		wantMoved, wantCons := refDepBounds(ctx, p)
		if gotMoved != wantMoved || gotCons != wantCons {
			t.Fatalf("block %d on P%d: depBounds = (%d, %d), linear scan (%d, %d)",
				ctx.bl.ID, p, gotMoved, gotCons, wantMoved, wantCons)
		}
		if wantMoved > 0 {
			tally.movedProducers++
		}

		for _, s := range starts {
			got := ctx.conflictFree(p, s)
			want, wrapped, shifted := refConflictFree(ctx, p, s)
			if got != want {
				t.Fatalf("block %d on P%d start %d (old start %d): conflictFree = %v, linear scan %v",
					ctx.bl.ID, p, s, sOld, got, want)
			}
			switch {
			case want && s > sOld:
				tally.negGainFrees++
			case !want && s > sOld:
				tally.negGainConflicts++
			}
			if want {
				tally.frees++
			} else {
				tally.conflicts++
			}
			if wrapped {
				tally.wrapped++
			}
			if shifted {
				tally.shifted++
			}
		}

		lb := max(wantMoved, wantCons, 0)
		windows := [][2]model.Time{{lb, sOld}, {0, sOld}, {0, h}, {h - span, h + span}, {-span, span}, {sOld / 2, sOld}}
		for _, w := range windows {
			got, gotOK := ctx.earliestConflictFree(p, w[0], w[1])
			want, wantOK, tr := refEarliestConflictFree(ctx, p, w[0], w[1])
			if got != want || gotOK != wantOK {
				t.Fatalf("block %d on P%d window [%d, %d]: earliestConflictFree = (%d, %v), linear scan (%d, %v)",
					ctx.bl.ID, p, w[0], w[1], got, gotOK, want, wantOK)
			}
			if tr.multiRound {
				tally.multiRound++
			}
			if tr.wrapDecided {
				tally.wrapDecided++
			}
			tally.beyond2H += tr.beyond2H
			if wantOK {
				tally.fits++
			} else {
				tally.noFits++
			}
		}
	}
}

type diffConfig struct {
	gen   gen.Config
	procs int
	comm  model.Time
}

// diffConfigs are the input families of the differential placement
// tests: seeds across 2–8 processors, and short-ladder systems with
// C ≥ 2.
func diffConfigs() []diffConfig {
	var configs []diffConfig
	for seed := int64(1); seed <= 4; seed++ {
		for _, procs := range []int{2, 3, 5, 8} {
			configs = append(configs, diffConfig{
				gen.Config{Seed: seed*31 + int64(procs), Tasks: 10 + 5*procs, Utilization: 0.55 * float64(procs)}, procs, 1})
		}
	}
	// A short period ladder with C ≥ 2 leaves gaps inside blocks that are
	// long against the periods, so later instances of a block's tasks can
	// sit inside its window and shift along with a gain (the envelope
	// widening of conflictFree).
	short := []model.Time{4, 8, 16}
	for _, c := range []struct {
		seed  int64
		procs int
		util  float64
		comm  model.Time
	}{{21, 3, 0.3, 2}, {4, 2, 0.3, 3}, {12, 4, 0.5, 3}, {13, 4, 0.3, 3}, {20, 4, 0.5, 3}} {
		configs = append(configs, diffConfig{
			gen.Config{Seed: c.seed, Tasks: 6 + 4*c.procs, Utilization: c.util * float64(c.procs), Periods: short, EdgeProb: 0.6},
			c.procs, c.comm})
	}
	return configs
}

// TestPlacementQueriesMatchLinearScan drives real balancing passes and,
// at every placement step, checks the reservation indexes and the
// indexed conflict, earliest-fit, propagation-cap and dependence-bound
// queries against the linear-scan references for every processor —
// across seeds, 2–8 processors, all policies and both propagation modes.
func TestPlacementQueriesMatchLinearScan(t *testing.T) {
	var tally diffTally
	runs := 0
	for _, cfg := range diffConfigs() {
		ts, err := gen.Generate(cfg.gen)
		if err != nil {
			t.Fatal(err)
		}
		ar := arch.MustNew(cfg.procs, cfg.comm)
		s, err := sched.NewScheduler(ts, ar).Run()
		if err != nil {
			continue // unschedulable input: nothing to balance
		}
		is := sched.FromSchedule(s)
		for _, policy := range []Policy{PolicyLexicographic, PolicyRatio, PolicyMemoryOnly} {
			for _, conservative := range []bool{false, true} {
				b := &Balancer{Policy: policy}
				b.probe = func(ctx pctx) { checkPlacementQueries(t, &ctx, &tally) }
				if _, err := b.runPass(is, conservative); err != nil {
					t.Fatalf("%+v M=%d %v conservative=%v: %v", cfg.gen, cfg.procs, policy, conservative, err)
				}
				runs++
			}
		}
	}
	t.Logf("%d passes, %+v", runs, tally)
	if runs < 24 || tally.wrapped == 0 || tally.shifted == 0 || tally.negGainConflicts == 0 || tally.negGainFrees == 0 ||
		tally.fits == 0 || tally.noFits == 0 || tally.movedProducers == 0 || tally.caps == 0 ||
		tally.multiRound == 0 || tally.wrapDecided == 0 || tally.beyond2H == 0 {
		t.Fatalf("differential coverage too thin: %d passes, %+v", runs, tally)
	}
}

// TestTimeIndexWindow checks the index against brute force under random
// insertions and removals: every obstacle intersecting a window lies at
// or after the index from returns, and the index stays sorted by start.
func TestTimeIndexWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := newTimeIndex[int](4)
	type obstacle struct{ start, end model.Time }
	live := map[int]obstacle{}
	var ids []int
	for id := 0; id < 400; id++ {
		if len(ids) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(ids))
			victim := ids[k]
			x.remove(live[victim].start, victim)
			delete(live, victim)
			ids = slices.Delete(ids, k, k+1)
		}
		start := model.Time(rng.Intn(60) - 10)
		o := obstacle{start, start + model.Time(rng.Intn(9)+1)}
		x.insert(o.start, o.end, id)
		live[id] = o
		ids = append(ids, id)
		if len(x.starts) != len(live) || !slices.IsSorted(x.starts) {
			t.Fatalf("index holds %d obstacles (sorted %v), want %d", len(x.starts), slices.IsSorted(x.starts), len(live))
		}
		lo := model.Time(rng.Intn(70) - 15)
		hi := lo + model.Time(rng.Intn(12))
		i := x.from(lo)
		for other, o := range live {
			if o.start < hi && o.end > lo {
				if k := slices.Index(x.items, other); k < i {
					t.Fatalf("obstacle [%d, %d) intersects [%d, %d) but lies before the walk start %d", o.start, o.end, lo, hi, i)
				}
			}
		}
	}
}
