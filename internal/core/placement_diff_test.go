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
// from the static block lists rather than from the index under test:
// every processed block on the processor is a moved interval, and every
// member of another unprocessed block on it a reservation. Each obstacle
// is tried at every image k·H that can reach the window (imageHit), with
// no folding. Producer bounds are recomputed per processor. The indexed
// production queries must agree with them on every answer.

// floorDiv is ⌊a / b⌋ for b > 0.
func floorDiv(a, b model.Time) model.Time {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// imageHit reports whether some image [b0+k·h, b1+k·h) meets [a0, a1),
// and the smallest |k| of one that does.
func imageHit(a0, a1, b0, b1, h model.Time) (hit bool, near model.Time) {
	for k := floorDiv(a0-b1, h); b0+k*h < a1; k++ {
		if b1+k*h > a0 && a1 > a0 && b1 > b0 {
			if !hit || max(k, -k) < near {
				near = max(k, -k)
			}
			hit = true
		}
	}
	return hit, near
}

// eachBlockOn calls fn for every block on p except the one being placed,
// with whether it is processed (a moved interval) or not (a reservation).
// Each block is listed under every task it holds; it is visited once,
// under the task of its first member.
func eachBlockOn(c *pctx, p arch.ProcID, fn func(bl *blocks.Block, processed bool)) {
	for t := range c.ts.Len() {
		for _, id := range c.st.blocksOf(model.TaskID(t)) {
			bl := &c.st.blks[id]
			if bl.Members[0].Inst.Task == model.TaskID(t) && bl.Proc == p && bl != c.bl {
				fn(bl, c.processed[bl.ID])
			}
		}
	}
}

// eachObstacleOn calls fn for every fixed obstacle on p, as [start, end):
// moved blocks, and the members of unprocessed blocks that do not shift
// along with the context block.
func eachObstacleOn(c *pctx, p arch.ProcID, fn func(start, end model.Time)) {
	eachBlockOn(c, p, func(other *blocks.Block, processed bool) {
		if processed {
			fn(other.Start(), other.End(c.ts))
			return
		}
		for _, m := range other.Members {
			if !c.shifts(m.Inst.Task) {
				fn(m.Start, m.Start+c.st.wcet[m.Inst.Task])
			}
		}
	})
}

// shiftCollides reports whether a member shifting along with the context
// block collides with it at some image: the verdict for every start.
func shiftCollides(c *pctx, p arch.ProcID) bool {
	h := c.ts.HyperPeriod()
	sOld := c.bl.Start()
	span := c.bl.End(c.ts) - sOld
	collides := false
	eachBlockOn(c, p, func(other *blocks.Block, processed bool) {
		for _, m := range other.Members {
			if !processed && c.shifts(m.Inst.Task) {
				hit, _ := imageHit(sOld, sOld+span, m.Start, m.Start+c.st.wcet[m.Inst.Task], h)
				collides = collides || hit
			}
		}
	})
	return collides
}

// refConflictFree also reports whether the conflict it found needs an
// image k ≠ 0, and whether it came from a member shifting along.
func refConflictFree(c *pctx, p arch.ProcID, s model.Time) (free, wrapped, shifted bool) {
	if shiftCollides(c, p) {
		return false, false, true
	}
	h := c.ts.HyperPeriod()
	end := s + c.bl.End(c.ts) - c.bl.Start()
	near := model.Time(-1)
	eachObstacleOn(c, p, func(start, e model.Time) {
		if hit, k := imageHit(s, end, start, e, h); hit && (near < 0 || k < near) {
			near = k
		}
	})
	return near < 0, near > 0, false
}

// fitTrace records what refEarliestConflictFree saw: whether the answer's
// window crosses a multiple of H, whether the last jump came from an
// image at |k| ≥ 2, and how many obstacles in the window start at or
// beyond 2H.
type fitTrace struct {
	wrapWindow, farDecided bool
	beyond2H               int
}

// image is one obstacle image and the |k| of its offset k·H.
type image struct {
	start, end, k model.Time
}

func refEarliestConflictFree(c *pctx, p arch.ProcID, lb, cap model.Time) (model.Time, bool, fitTrace) {
	var tr fitTrace
	h := c.ts.HyperPeriod()
	span := c.bl.End(c.ts) - c.bl.Start()
	if shiftCollides(c, p) {
		return 0, false, tr
	}

	wHi := cap + span
	var obst []image
	eachObstacleOn(c, p, func(start, end model.Time) {
		for k := floorDiv(lb-end, h); start+k*h < wHi; k++ {
			if end+k*h > lb {
				obst = append(obst, image{start + k*h, end + k*h, max(k, -k)})
				if start >= 2*h {
					tr.beyond2H++
				}
			}
		}
	})
	slices.SortFunc(obst, func(a, b image) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end))
	})

	s, lastK := lb, model.Time(0)
	for _, ob := range obst {
		if ob.start >= s+span {
			break
		}
		if ob.end > s {
			s, lastK = ob.end, ob.k
		}
	}
	tr.farDecided = lastK >= 2
	if s <= cap {
		tr.wrapWindow = floorDiv(s, h) != floorDiv(s+span-1, h)
		return s, true, tr
	}
	return 0, false, tr
}

// refPropagationCap is propagationCap as a linear scan over the static
// block lists, each obstacle at every image near the shifted member.
func refPropagationCap(c *pctx) model.Time {
	if !c.cat1 {
		return 0
	}
	h := c.ts.HyperPeriod()
	cap := h
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
					end := c.st.member(c.st.owner[c.ts.InstanceIndex(src)]).Start + c.ts.Task(src.Task).WCET
					if c.conservative {
						end += c.ar.CommTime
					}
					cap = min(cap, m.Start-end)
				})
				mEnd := m.Start + c.ts.Task(m.Inst.Task).WCET
				eachObstacleOn(c, p, func(start, end model.Time) {
					for k := floorDiv(m.Start-h-end, h); start+k*h < mEnd; k++ {
						if end+k*h <= m.Start {
							cap = min(cap, m.Start-(end+k*h))
						} else {
							cap = 0 // collides already; no room to shift
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
			if int(ref.blk) == bl.ID {
				return
			}
			end := st.member(ref).Start + ts.Task(src.Task).WCET
			if c.processed[ref.blk] {
				delay := model.Time(0)
				if st.blks[ref.blk].Proc != p {
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
	wrapWindows, farDecided, beyond2H                                         int
}

// foldPieces folds [a, e) into its pieces of [0, h).
func foldPieces(a, e, h model.Time) [][2]model.Time {
	if e-a >= h {
		return [][2]model.Time{{0, h}}
	}
	s := a % h
	if s < 0 {
		s += h
	}
	if t := s + e - a; t > h {
		return [][2]model.Time{{s, h}, {0, t - h}}
	}
	return [][2]model.Time{{s, s + e - a}}
}

// checkFoldIndex requires that the index of every processor holds exactly
// the folded pieces of its moved blocks and of the members of its other
// unprocessed blocks, each once and keyed by its current start.
func checkFoldIndex(t *testing.T, ctx *pctx) {
	t.Helper()
	h := ctx.ts.HyperPeriod()
	type piece struct {
		start model.Time
		ob    obstacle
	}
	key := func(a, b piece) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.ob.end, b.ob.end), cmp.Compare(a.ob.task, b.ob.task),
			cmp.Compare(a.ob.ref.blk, b.ob.ref.blk), cmp.Compare(a.ob.ref.mi, b.ob.ref.mi))
	}
	for p := range ctx.st.occ {
		x := &ctx.st.occ[p]
		var want, got []piece
		eachBlockOn(ctx, arch.ProcID(p), func(other *blocks.Block, processed bool) {
			if processed {
				for _, pc := range foldPieces(other.Start(), other.End(ctx.ts), h) {
					want = append(want, piece{pc[0], obstacle{end: pc[1], task: -1}})
				}
				return
			}
			for mi, m := range other.Members {
				for _, pc := range foldPieces(m.Start, m.Start+ctx.st.wcet[m.Inst.Task], h) {
					want = append(want, piece{pc[0], obstacle{pc[1], m.Inst.Task, ownerRef{int32(other.ID), int32(mi)}}})
				}
			}
		})
		for i, st := range x.starts {
			got = append(got, piece{st, x.items[i]})
			if x.items[i].end-st > x.maxLen {
				t.Fatalf("block %d: P%d piece [%d, %d) longer than maxLen %d", ctx.bl.ID, p, st, x.items[i].end, x.maxLen)
			}
		}
		if !slices.IsSorted(x.starts) {
			t.Fatalf("block %d: P%d index not sorted by start", ctx.bl.ID, p)
		}
		slices.SortFunc(want, key)
		slices.SortFunc(got, key)
		if !slices.Equal(got, want) {
			t.Fatalf("block %d: P%d index holds %d pieces %v, want %d %v", ctx.bl.ID, p, len(got), got, len(want), want)
		}
	}
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

	starts := []model.Time{0, 1, capped, h - span, h - 1, h, -span + 1, -h, -h / 2, sOld - h/2, sOld + h/2, 2*h - span, 3*h - 1}
	for d := model.Time(-8); d <= 4; d++ {
		starts = append(starts, sOld+d) // d > 0: negative gain
	}
	checkFoldIndex(t, ctx)

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
		windows := [][2]model.Time{{lb, sOld}, {0, sOld}, {0, h}, {h - span, h + span}, {-span, span}, {sOld / 2, sOld}, {2*h - span, 4 * h}}
		for _, w := range windows {
			got, gotOK := ctx.earliestConflictFree(p, w[0], w[1])
			want, wantOK, tr := refEarliestConflictFree(ctx, p, w[0], w[1])
			if got != want || gotOK != wantOK {
				t.Fatalf("block %d on P%d window [%d, %d]: earliestConflictFree = (%d, %v), linear scan (%d, %v)",
					ctx.bl.ID, p, w[0], w[1], got, gotOK, want, wantOK)
			}
			if tr.wrapWindow {
				tally.wrapWindows++
			}
			if tr.farDecided {
				tally.farDecided++
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
	// sit inside its window and shift along with a gain.
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
				if _, err := onePass(b, NewPlan(is), conservative); err != nil {
					t.Fatalf("%+v M=%d %v conservative=%v: %v", cfg.gen, cfg.procs, policy, conservative, err)
				}
				runs++
			}
		}
	}
	t.Logf("%d passes, %+v", runs, tally)
	if runs < 24 || tally.wrapped == 0 || tally.shifted == 0 || tally.negGainConflicts == 0 || tally.negGainFrees == 0 ||
		tally.fits == 0 || tally.noFits == 0 || tally.movedProducers == 0 || tally.caps == 0 ||
		tally.wrapWindows == 0 || tally.farDecided == 0 || tally.beyond2H == 0 {
		t.Fatalf("differential coverage too thin: %d passes, %+v", runs, tally)
	}
}

// TestFoldIndexWindow checks the index against brute force under random
// insertions and removals: it stays sorted by start, and every piece
// that reaches past a residue r lies at or after the index from returns.
func TestFoldIndexWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const h = 24
	x := &newFoldIndexes(h, []int{4})[0]
	type span struct{ start, end model.Time }
	live := map[int]span{}
	var ids []int
	ref := func(id int) ownerRef { return ownerRef{mi: int32(id)} }
	for id := 0; id < 400; id++ {
		if len(ids) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(ids))
			victim := ids[k]
			x.remove(live[victim].start, live[victim].end, ref(victim))
			delete(live, victim)
			ids = slices.Delete(ids, k, k+1)
		}
		start := model.Time(rng.Intn(4*h) - h)
		o := span{start, start + model.Time(rng.Intn(h+4)+1)}
		x.insert(o.start, o.end, obstacle{task: 0, ref: ref(id)}, true)
		live[id] = o
		ids = append(ids, id)
		want := 0
		for _, o := range live {
			want += len(foldPieces(o.start, o.end, h))
		}
		if len(x.starts) != want || !slices.IsSorted(x.starts) {
			t.Fatalf("index holds %d pieces (sorted %v), want %d", len(x.starts), slices.IsSorted(x.starts), want)
		}
		r := model.Time(rng.Intn(h))
		i := x.from(r)
		for k := range x.starts {
			if x.items[k].end > r && k < i {
				t.Fatalf("piece [%d, %d) reaches past %d but lies before the walk start %d", x.starts[k], x.items[k].end, r, i)
			}
		}
	}
}

// TestLeftRoomFolds pins leftRoom on hand-built indexes (H = 12): the
// room a shifted member has is the distance from its residue back to
// the nearest folded obstacle end, 0 when a fixed obstacle already
// collides with it — also one that starts inside it at image 2H — and
// members that shift along do not count.
func TestLeftRoomFolds(t *testing.T) {
	ts := model.NewTaskSet()
	ts.MustAddTask("s", 12, 2, 1) // shifts along
	ts.MustAddTask("f", 12, 2, 1) // fixed reservation
	ts.MustFreeze()
	type obst struct {
		start, end model.Time
		task       model.TaskID
	}
	cases := []struct {
		name      string
		obstacles []obst
		ms, limit model.Time
		want      model.Time
	}{
		{"empty", nil, 30, 12, 12},
		{"moved block to the left", []obst{{2, 4, -1}}, 30, 12, 2},
		{"reservation at image 2H", []obst{{26, 28, 1}}, 6, 12, 2},
		{"member wrapping onto an obstacle", []obst{{0, 1, 1}}, 11, 12, 0},
		{"starts inside at image 2H", []obst{{2, 4, -1}, {31, 32, -1}}, 6, 12, 0},
		{"ends past the member start", []obst{{17, 19, 1}}, 30, 12, 0},
		{"shift-along member skipped", []obst{{2, 4, -1}, {4, 6, 0}, {7, 8, 0}}, 30, 12, 2},
		{"piece wrapping H", []obst{{10, 14, -1}}, 15, 12, 1},
		{"limit binds", []obst{{0, 1, 1}}, 10, 3, 3},
	}
	for _, tc := range cases {
		st := &balState{occ: newFoldIndexes(12, []int{4}), shifted: []bool{true, false}}
		for i, o := range tc.obstacles {
			st.occ[0].insert(o.start, o.end, obstacle{task: o.task, ref: ownerRef{mi: int32(i)}}, true)
		}
		c := &pctx{ts: ts, st: st, cat1: true}
		if got := c.leftRoom(0, tc.ms, 2, tc.limit); got != tc.want {
			t.Errorf("%s: leftRoom(%d) = %d, want %d", tc.name, tc.ms, got, tc.want)
		}
	}
}
