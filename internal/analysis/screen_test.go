package analysis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/sched"
)

// screen_test.go is the screen's soundness oracle: every task set
// CheckSchedulability refuses must be one sched.Scheduler.Run refuses
// too. The campaign engine refuses screened systems without scheduling
// them, so a refusal the scheduler would have met changes an outcome.

// screenFamilies are the period families of the generated sets: the
// paper's harmonic ladder and a non-harmonic one.
var screenFamilies = [][]model.Time{{10, 20, 40, 80}, {6, 10, 15}}

// screenRule names the rule a refusal came from ("" for a pass).
func screenRule(err error) string {
	switch {
	case err == nil:
		return ""
	case strings.Contains(err.Error(), "demand"):
		return "demand"
	default:
		return "clique"
	}
}

// checkScreenSound screens ts on m processors and, on a refusal, fails
// the test if the scheduler places the set. It returns the refusing
// rule and whether the scheduler placed the set.
func checkScreenSound(t testing.TB, ts *model.TaskSet, m int) (rule string, scheduled bool) {
	t.Helper()
	_, err := CheckSchedulability(ts, m)
	rule = screenRule(err)
	_, serr := sched.NewScheduler(ts, arch.MustNew(m, 1)).Run()
	if rule != "" && serr == nil {
		t.Fatalf("screen refused a set the scheduler places on %d processors (%v):\n%v", m, err, ts.Tasks())
	}
	return rule, serr == nil
}

// nearFullSet draws tasks from the family until ΣE/T reaches a target
// between 0.6·m and 1.05·m. Half the WCETs are above half their period, so
// large-WCET tasks that pairwise conflict — the clique rule's material —
// are common. Tasks of harmonic periods are linked with probability
// 0.2, earlier to later.
func nearFullSet(rng *rand.Rand, periods []model.Time, m int) *model.TaskSet {
	ts := model.NewTaskSet()
	target := float64(m) * (0.6 + 0.45*rng.Float64())
	for u := 0.0; u < target; {
		p := periods[rng.Intn(len(periods))]
		e := 1 + model.Time(rng.Int63n(int64(p/2)))
		if rng.Intn(2) == 0 {
			e = p/2 + 1 + model.Time(rng.Int63n(int64(p-p/2)))
		}
		id := ts.MustAddTask(fmt.Sprintf("t%d", ts.Len()), p, e, 1)
		for src := range id {
			if rng.Float64() < 0.2 {
				_ = ts.AddDependence(src, id, 1) // non-harmonic pairs are refused: no edge
			}
		}
		u += float64(e) / float64(p)
	}
	return ts.MustFreeze()
}

// TestScreenSound checks the oracle on generated sets near U = M, on
// both families, and that both refusal rules and real schedules occur
// among them — a test that only ever sees one kind proves nothing.
func TestScreenSound(t *testing.T) {
	for fi, periods := range screenFamilies {
		seen := map[string]int{}
		scheduled := 0
		for seed := int64(0); seed < 1000; seed++ {
			rng := rand.New(rand.NewSource(seed*7 + int64(fi)))
			m := 1 + rng.Intn(4)
			rule, ok := checkScreenSound(t, nearFullSet(rng, periods, m), m)
			seen[rule]++
			if ok {
				scheduled++
			}
		}
		t.Logf("periods %v: refusals %v, scheduled %d of 1000", periods, seen, scheduled)
		if seen["demand"] == 0 || seen["clique"] == 0 || scheduled == 0 {
			t.Fatalf("periods %v: refusals %v, scheduled %d: the sets miss a rule or never schedule", periods, seen, scheduled)
		}
	}
}

// FuzzScreenSound decodes a small task set from the input — a
// processor count, a period family, then three bytes per task: period,
// WCET, and the producer it links to — and checks the oracle on it.
func FuzzScreenSound(f *testing.F) {
	f.Add(byte(1), byte(0), []byte{0, 255, 0, 0, 255, 0, 1, 200, 1})
	f.Add(byte(2), byte(1), []byte{0, 250, 0, 1, 250, 0, 2, 250, 0, 0, 200, 0})
	f.Add(byte(0), byte(0), []byte{3, 255, 0, 3, 255, 1, 2, 10, 2})
	f.Fuzz(func(t *testing.T, mb, fb byte, data []byte) {
		periods := screenFamilies[int(fb)%len(screenFamilies)]
		m := 1 + int(mb)%4
		ts := model.NewTaskSet()
		for i := 0; i+2 < len(data) && ts.Len() < 12; i += 3 {
			p := periods[int(data[i])%len(periods)]
			e := 1 + model.Time(data[i+1])*p/256
			id := ts.MustAddTask(fmt.Sprintf("t%d", ts.Len()), p, e, 1)
			if src := model.TaskID(data[i+2]); src < id {
				_ = ts.AddDependence(src, id, 1)
			}
		}
		if ts.Len() == 0 {
			return
		}
		checkScreenSound(t, ts.MustFreeze(), m)
	})
}
