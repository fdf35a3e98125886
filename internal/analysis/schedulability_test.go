package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

func set(t *testing.T, specs ...[3]model.Time) *model.TaskSet {
	t.Helper()
	ts := model.NewTaskSet()
	for i, sp := range specs {
		ts.MustAddTask(string(rune('a'+i)), sp[0], sp[1], 1)
	}
	ts.MustFreeze()
	return ts
}

func TestSchedulabilityPasses(t *testing.T) {
	ts := set(t, [3]model.Time{4, 1, 0}, [3]model.Time{8, 2, 0})
	rep, err := CheckSchedulability(ts, 2)
	if err != nil {
		t.Fatalf("feasible set rejected: %v", err)
	}
	if !rep.PassesAll {
		t.Error("PassesAll false on a feasible set")
	}
}

func TestSchedulabilityUtilizationBound(t *testing.T) {
	// Two tasks each with full utilisation on one processor.
	ts := set(t, [3]model.Time{4, 4, 0}, [3]model.Time{4, 4, 0})
	_, err := CheckSchedulability(ts, 1)
	if err == nil || !strings.Contains(err.Error(), "utilisation") {
		t.Fatalf("overload not rejected: %v", err)
	}
}

func TestSchedulabilityDensestClassReported(t *testing.T) {
	ts := set(t, [3]model.Time{4, 3, 0}, [3]model.Time{4, 3, 0}, [3]model.Time{100, 1, 0})
	rep, err := CheckSchedulability(ts, 3)
	if err != nil {
		t.Fatalf("unexpected rejection: %v", err)
	}
	if rep.DensestPeriod != 4 || rep.DensestDemand != 6 {
		t.Errorf("densest class = (%d, %d), want (4, 6)", rep.DensestPeriod, rep.DensestDemand)
	}
}

func TestSchedulabilityCliqueBound(t *testing.T) {
	// Three tasks, pairwise incompatible (E+E > gcd), on 2 processors.
	ts := set(t,
		[3]model.Time{4, 3, 0},
		[3]model.Time{4, 3, 0},
		[3]model.Time{8, 3, 0},
	)
	_, err := CheckSchedulability(ts, 2)
	if err == nil {
		t.Fatal("three mutually incompatible tasks on 2 processors accepted")
	}
}

func TestSchedulabilityReportsPairConflicts(t *testing.T) {
	ts := set(t, [3]model.Time{4, 3, 0}, [3]model.Time{8, 3, 0})
	rep, err := CheckSchedulability(ts, 2)
	if err != nil {
		t.Fatalf("separable pair rejected: %v", err)
	}
	if len(rep.PairConflicts) != 1 || rep.PairConflicts[0].GCD != 4 {
		t.Errorf("pair conflicts = %+v, want one with gcd 4", rep.PairConflicts)
	}
}

func TestSchedulabilityNeedsProcessor(t *testing.T) {
	ts := set(t, [3]model.Time{4, 1, 0})
	if _, err := CheckSchedulability(ts, 0); err == nil {
		t.Fatal("zero processors accepted")
	}
}

func TestSchedulabilityExactlyFullLoad(t *testing.T) {
	// ΣE/T = 0.4 + 0.8 + 0.6 + 0.2 rounds to 2.0000000000000004 in
	// floating point, but the demand is exactly two processors'
	// hyper-periods ({4, 1} and {2, 3} each fill one).
	ts := set(t, [3]model.Time{5, 2, 0}, [3]model.Time{5, 4, 0}, [3]model.Time{5, 3, 0}, [3]model.Time{5, 1, 0})
	if ts.Utilization() <= 2 {
		t.Fatalf("fixture utilisation %v does not round past 2", ts.Utilization())
	}
	rep, err := CheckSchedulability(ts, 2)
	if err != nil || !rep.PassesAll {
		t.Fatalf("a set at exactly full load was refused: %v", err)
	}
}

func TestSchedulabilityHugeHyperPeriod(t *testing.T) {
	// H = 2^62: M·H wraps in 64 bits for M = 4, and the demand of four
	// full tasks does too.
	const p = model.Time(1) << 62
	one := set(t, [3]model.Time{p, 1, 0})
	if _, err := CheckSchedulability(one, 4); err != nil {
		t.Fatalf("a light set refused when M·H wraps 64 bits: %v", err)
	}
	full := set(t, [3]model.Time{p, p, 0}, [3]model.Time{p, p, 0}, [3]model.Time{p, p, 0}, [3]model.Time{p, p, 0})
	if _, err := CheckSchedulability(full, 4); err != nil {
		t.Fatalf("four full tasks refused on four processors: %v", err)
	}
	_, err := CheckSchedulability(full, 3)
	if err == nil || !strings.Contains(err.Error(), "18446744073709551616") {
		t.Fatalf("four full tasks on three processors: %v, want the 2^64 demand named", err)
	}
}

// refPairConflicts is the plain double loop over task pairs.
func refPairConflicts(ts *model.TaskSet) []PairConflict {
	var out []PairConflict
	tasks := ts.Tasks()
	for i := range tasks {
		for j := i + 1; j < len(tasks); j++ {
			if g := model.GCD(tasks[i].Period, tasks[j].Period); tasks[i].WCET+tasks[j].WCET > g {
				out = append(out, PairConflict{A: tasks[i].ID, B: tasks[j].ID, GCD: g})
			}
		}
	}
	return out
}

// TestPairConflictsMatchPairScan pins the class-wise scan to the plain
// pair loop, pair for pair and in order, on harmonic, non-harmonic and
// mixed period families.
func TestPairConflictsMatchPairScan(t *testing.T) {
	families := [][]model.Time{{10, 20, 40, 80}, {6, 10, 15}, {4, 6, 7, 9, 12}, {8}}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		periods := families[seed%int64(len(families))]
		ts := model.NewTaskSet()
		for i := range 5 + rng.Intn(60) {
			p := periods[rng.Intn(len(periods))]
			ts.MustAddTask(fmt.Sprintf("t%d", i), p, 1+model.Time(rng.Int63n(int64(p))), 1)
		}
		ts.MustFreeze()
		rep, _ := CheckSchedulability(ts, 1<<20)
		if want := refPairConflicts(ts); !slices.Equal(rep.PairConflicts, want) {
			t.Fatalf("seed %d: %d conflicts %v, want %d %v", seed, len(rep.PairConflicts), rep.PairConflicts, len(want), want)
		}
	}
}

// BenchmarkCheckSchedulability screens one 600-task set of the
// paper-phase grid (periods 10–80, U = 12) against 32 processors.
func BenchmarkCheckSchedulability(b *testing.B) {
	ts, err := gen.Generate(gen.Config{Seed: 0, Tasks: 600, Utilization: 12, Periods: []model.Time{10, 20, 40, 80},
		EdgeProb: 0.3, MaxInDegree: 3, MemMin: 1, MemMax: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CheckSchedulability(ts, 32); err != nil {
			b.Fatal(err)
		}
	}
}
