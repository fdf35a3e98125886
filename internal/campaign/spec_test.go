package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSpecDefaults(t *testing.T) {
	var s Spec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Name != "campaign" || s.Seeds != 20 || s.CommTime != 1 {
		t.Fatalf("defaults: %+v", s)
	}
	trials, err := s.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 20 {
		t.Fatalf("default spec enumerates %d trials, want 20", len(trials))
	}
}

func TestSpecEnumeration(t *testing.T) {
	s := Spec{
		Seeds:       3,
		SeedBase:    100,
		Tasks:       []int{10, 20},
		Utilization: []float64{1.5},
		Procs:       []int{2, 4},
		Policies:    []string{"lexicographic", "memory-only"},
	}
	trials, err := s.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 1 * 2 * 2 * 3; len(trials) != want {
		t.Fatalf("got %d trials, want %d", len(trials), want)
	}
	for i, tr := range trials {
		if tr.Index != i {
			t.Fatalf("trial %d has index %d", i, tr.Index)
		}
	}
	// Seeds shard within a cell: first cell holds seeds 100..102.
	if trials[0].Gen.Seed != 100 || trials[2].Gen.Seed != 102 || trials[3].Gen.Seed != 100 {
		t.Fatalf("seed sharding: %d %d %d", trials[0].Gen.Seed, trials[2].Gen.Seed, trials[3].Gen.Seed)
	}
	if trials[0].Cell != "N=10/U=1.5/M=2/lexicographic" {
		t.Fatalf("cell key: %q", trials[0].Cell)
	}
	if order := cellOrder(trials); len(order) != 8 {
		t.Fatalf("cell order: %v", order)
	}
}

func TestSpecRejectsBadInput(t *testing.T) {
	for _, s := range []Spec{
		{Policies: []string{"simulated-annealing"}},
		{Tasks: []int{0}},
		{Procs: []int{-1}},
		{Seeds: -5},
		{Tasks: []int{10, 10}},
		{Utilization: []float64{2, 2}},
		{Procs: []int{4, 4}},
		{Policies: []string{"ratio", "ratio"}},
	} {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %+v: want error", s)
		}
	}
}

func TestSpecEdgeFreeSentinel(t *testing.T) {
	s := Spec{EdgeProb: -1}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.EdgeProb >= 0 {
		t.Fatalf("sentinel collapsed to %v", s.EdgeProb)
	}
	// Idempotent: a second Normalize must not resurrect the default.
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.EdgeProb >= 0 {
		t.Fatalf("sentinel lost on re-normalize: %v", s.EdgeProb)
	}
	// The generator honours it: no dependences at all.
	trials, err := s.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if got := trials[0].Gen.Normalized().EdgeProb; got != 0 {
		t.Fatalf("effective edge probability %v, want 0", got)
	}
	// Unset still means the generator default.
	var d Spec
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d.EdgeProb != 0.3 {
		t.Fatalf("default edge probability %v, want 0.3", d.EdgeProb)
	}
}

func TestLoadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	body := `{"name":"smoke","seeds":2,"tasks":[8],"utilization":[1.2],"procs":[2],"policies":["ratio"]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "smoke" || s.Seeds != 2 || s.CommTime != 1 {
		t.Fatalf("loaded: %+v", s)
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
}
