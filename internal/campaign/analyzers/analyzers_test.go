package analyzers

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/sim"
)

// pipelineInput runs the real pipeline on a small schedulable instance
// and returns the analyzer input an accepted campaign trial would see.
func pipelineInput(t *testing.T, recordCandidates bool) *Input {
	t.Helper()
	ts, err := gen.Generate(gen.Config{Seed: 3, Tasks: 12, Utilization: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.MustNew(3, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatal(err)
	}
	is := sched.FromSchedule(s)
	before, err := (&sim.Runner{}).Run(is)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&core.Balancer{RecordCandidates: recordCandidates}).Run(is)
	if err != nil {
		t.Fatal(err)
	}
	after, err := (&sim.Runner{}).Run(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return &Input{
		TS: ts, Procs: ar.Procs, Comm: ar.CommTime,
		Sched: res.Schedule, Rep: after,
		Balance: res, Before: before, After: after,
	}
}

// beforeInput rebuilds the before-phase view of the same trial: the
// initial schedule and its simulation, no balancing outcome.
func beforeInput(t *testing.T) *Input {
	t.Helper()
	ts, err := gen.Generate(gen.Config{Seed: 3, Tasks: 12, Utilization: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.MustNew(3, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatal(err)
	}
	is := sched.FromSchedule(s)
	before, err := (&sim.Runner{}).Run(is)
	if err != nil {
		t.Fatal(err)
	}
	return &Input{TS: ts, Procs: ar.Procs, Comm: ar.CommTime, Sched: is, Rep: before, Before: before}
}

// mustRun is set.Run with the error path fatal — the helper every
// valid-analyzer test goes through.
func mustRun(t *testing.T, s Set, in *Input) map[string]float64 {
	t.Helper()
	extras, err := s.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return extras
}

// TestRegistryInvariants pins the registry contract every analyzer must
// honour: namespaced sorted keys, disjoint across analyzers.
func TestRegistryInvariants(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no analyzers registered")
	}
	// Canonical order must be lexical, not init()/file order: it feeds
	// Spec.Hash(), so a source-file rename must never change it.
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registry order not lexical: %v", names)
	}
	seen := map[string]string{}
	for _, n := range names {
		a, ok := Get(n)
		if !ok {
			t.Fatalf("Names lists %q but Get cannot find it", n)
		}
		if len(a.Keys) == 0 {
			t.Fatalf("%s: no keys", n)
		}
		if !sort.StringsAreSorted(a.Keys) {
			t.Fatalf("%s: keys not sorted: %v", n, a.Keys)
		}
		for _, k := range a.Keys {
			if !strings.HasPrefix(k, n+".") {
				t.Fatalf("%s: key %q outside its namespace", n, k)
			}
			if prev, dup := seen[k]; dup {
				t.Fatalf("key %q claimed by both %s and %s", k, prev, n)
			}
			seen[k] = n
		}
	}
	for _, want := range []string{"schedulability", "moves", "contention", "reuse"} {
		if _, ok := Get(want); !ok {
			t.Fatalf("analyzer %q not registered", want)
		}
	}
	// The phase-axis namespaces and the CLI sentinel can never be
	// claimed as analyzer names.
	for name := range reservedNames {
		if _, ok := Get(name); ok {
			t.Fatalf("reserved name %q is registered", name)
		}
	}
}

// TestParse covers validation and canonicalisation of analyzer lists.
func TestParse(t *testing.T) {
	if set, err := Parse(nil); err != nil || set != nil {
		t.Fatalf("empty list: set=%v err=%v", set, err)
	}
	if _, err := Parse([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("unknown name: %v", err)
	}
	if _, err := Parse([]string{"moves", "moves"}); err == nil || !strings.Contains(err.Error(), "named twice") {
		t.Fatalf("duplicate name: %v", err)
	}
	// Any input order canonicalises to the same set.
	a, err := Parse([]string{"moves", "schedulability"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]string{"schedulability", "moves"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Names(), b.Names()) {
		t.Fatalf("order-dependent canonicalisation: %v vs %v", a.Names(), b.Names())
	}
	if !sort.StringsAreSorted(a.Keys()) {
		t.Fatalf("set keys not sorted: %v", a.Keys())
	}
	if a.NeedsCandidates() {
		t.Fatal("moves reads the per-move feasible counts and must leave candidate recording off")
	}
	c, err := Parse([]string{"contention"})
	if err != nil {
		t.Fatal(err)
	}
	if c.NeedsCandidates() {
		t.Fatal("contention alone must not request candidate recording")
	}
}

// TestAnalyzersRunOnRealTrial runs every registered analyzer over a real
// accepted trial and checks shape, determinism, and basic sanity of the
// published values.
func TestAnalyzersRunOnRealTrial(t *testing.T) {
	in := pipelineInput(t, true)
	set, err := Parse(Names())
	if err != nil {
		t.Fatal(err)
	}
	extras := mustRun(t, set, in)
	if len(extras) != len(set.Keys()) {
		t.Fatalf("extras carry %d keys, set declares %d", len(extras), len(set.Keys()))
	}
	for _, k := range set.Keys() {
		if _, ok := extras[k]; !ok {
			t.Fatalf("declared key %q missing from extras", k)
		}
	}
	// Deterministic across repeated runs on the same input.
	if again := mustRun(t, set, in); !reflect.DeepEqual(extras, again) {
		t.Fatalf("analyzer output not deterministic:\n%v\n%v", extras, again)
	}

	if u := extras["schedulability.util"]; u <= 0 || u > float64(in.Procs) {
		t.Fatalf("schedulability.util = %v outside (0, M]", u)
	}
	if m := extras["schedulability.util_margin"]; m < 0 {
		t.Fatalf("accepted trial with negative util margin %v", m)
	}
	if d := extras["schedulability.densest_margin"]; d < 0 || d > 1 {
		t.Fatalf("densest margin %v outside [0,1]", d)
	}

	tr := in.Balance.Trace()
	if got := extras["moves.relocated"]; got != float64(tr.Relocated) {
		t.Fatalf("moves.relocated = %v, trace has %d", got, tr.Relocated)
	}
	if got := extras["moves.gained"]; got != float64(tr.Gained) {
		t.Fatalf("moves.gained = %v, trace has %d", got, tr.Gained)
	}
	if evals := extras["moves.cand_evals"]; evals == 0 {
		t.Fatal("moves.cand_evals is zero despite candidate recording")
	}
	if r := extras["moves.cand_feasible_ratio"]; r < 0 || r > 1 {
		t.Fatalf("feasible ratio %v outside [0,1]", r)
	}
	if churn := extras["moves.block_churn"]; churn < 0 || churn > 1 {
		t.Fatalf("block churn %v outside [0,1]", churn)
	}

	for _, k := range []string{"contention.busy_min", "contention.busy_mean", "contention.busy_max"} {
		if v := extras[k]; v < 0 || v > 1 {
			t.Fatalf("%s = %v outside [0,1]", k, v)
		}
	}
	if extras["contention.busy_min"] > extras["contention.busy_mean"] ||
		extras["contention.busy_mean"] > extras["contention.busy_max"] {
		t.Fatalf("busy stats out of order: %v ≤ %v ≤ %v expected",
			extras["contention.busy_min"], extras["contention.busy_mean"], extras["contention.busy_max"])
	}
	if extras["contention.idle_windows_mean"] < 0 {
		t.Fatalf("negative idle window count %v", extras["contention.idle_windows_mean"])
	}
}

// TestMovesWithoutCandidates: the moves analyzer reads the per-move
// feasible counts, so it publishes the same values whether or not the
// balancer recorded its candidates.
func TestMovesWithoutCandidates(t *testing.T) {
	in := pipelineInput(t, false)
	set, err := Parse([]string{"moves"})
	if err != nil {
		t.Fatal(err)
	}
	extras := mustRun(t, set, in)
	tr := in.Balance.Trace()
	if extras["moves.cand_evals"] != float64(len(in.Balance.Moves)*in.Procs) || extras["moves.cand_feasible"] == 0 {
		t.Fatalf("candidate counters not populated without recording: %v", extras)
	}
	if extras["moves.relocated"] != float64(tr.Relocated) || extras["moves.gained"] != float64(tr.Gained) {
		t.Fatalf("move counters not populated: %v", extras)
	}
	if recorded := mustRun(t, set, pipelineInput(t, true)); !reflect.DeepEqual(recorded, extras) {
		t.Fatalf("moves extras depend on candidate recording:\n with    %v\n without %v", recorded, extras)
	}
}
