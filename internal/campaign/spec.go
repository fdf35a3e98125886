package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/campaign/analyzers"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
)

// Spec describes one sweep: the grid of generator configurations,
// architectures, and balancer policies, and how many seeds to run per
// grid cell. The zero value (plus Normalize) is a small smoke sweep.
//
// The grid is Tasks × Utilization × Procs × Policies; each cell runs
// Seeds trials with seeds SeedBase … SeedBase+Seeds−1. Trial
// enumeration order — and therefore every artifact — is fully
// determined by the spec, never by the worker count.
type Spec struct {
	Name string `json:"name"`

	// Seeds per cell (default 20) starting at SeedBase (default 0).
	Seeds    int   `json:"seeds"`
	SeedBase int64 `json:"seed_base"`

	// Grid axes. Empty axes get one default entry.
	Tasks       []int     `json:"tasks"`       // default {40}
	Utilization []float64 `json:"utilization"` // default {2.5}
	Procs       []int     `json:"procs"`       // default {4}
	Policies    []string  `json:"policies"`    // default {"lexicographic"}

	// Shared generator knobs (see gen.Config); zero values defer to the
	// generator's own defaults. EdgeProb < 0 requests an edge-free
	// system (an explicit zero is indistinguishable from unset in JSON).
	Periods     []model.Time `json:"periods,omitempty"`
	EdgeProb    float64      `json:"edge_prob,omitempty"`
	MaxInDegree int          `json:"max_in_degree,omitempty"`
	MemMin      model.Mem    `json:"mem_min,omitempty"`
	MemMax      model.Mem    `json:"mem_max,omitempty"`

	// CommTime is the architecture's per-datum transfer time C
	// (default 1, the paper's setting).
	CommTime model.Time `json:"comm_time"`

	// IgnoreTiming runs the balancer in the §5.2 memory-only regime
	// where timing filters are disabled (Theorem 2's setting).
	IgnoreTiming bool `json:"ignore_timing,omitempty"`

	// Analyzers names the per-trial analyzers to attach (see
	// internal/campaign/analyzers); accepted trials then carry a
	// namespaced extras payload that folds into the artifacts. The list
	// is canonicalised by Normalize and — being part of the marshalled
	// spec — of Spec.Hash(), so journals written under different
	// analyzer sets can never be mixed. Empty (the default) is the
	// allocation-neutral fast path.
	Analyzers []string `json:"analyzers,omitempty"`

	// AnalyzerPhases selects the schedule phases the analyzers run
	// over: ["after"] (the default — balanced schedule only, the
	// unprefixed extras keys) or ["before","after"], which also runs
	// the phase-sensitive analyzers over the initial pre-balancing
	// schedule and adds before.<ns>.* and delta.<ns>.* extras. The
	// list is canonicalised by Normalize — and collapsed back to the
	// default when no analyzers are named, so the phase axis never
	// forks the sweep identity without a behavioural difference. Like
	// the analyzer set, the phase set is part of Spec.Hash(): journals
	// written under different phase sets can never be mixed.
	AnalyzerPhases []string `json:"analyzer_phases,omitempty"`
}

// Trial is one fully-resolved pipeline run: a point of the spec grid
// plus one seed. Index is the position in enumeration order and is the
// determinism anchor for aggregation.
type Trial struct {
	Index  int
	Cell   string
	Gen    gen.Config
	Procs  int
	Comm   model.Time
	Policy core.Policy

	ignoreTiming bool
	analyzers    analyzers.Set
	phases       analyzers.PhaseSet
}

// Normalize fills defaults in place and validates the spec.
func (s *Spec) Normalize() error {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.Seeds == 0 {
		s.Seeds = 20
	}
	if s.Seeds < 0 {
		return fmt.Errorf("campaign: negative seed count %d", s.Seeds)
	}
	if len(s.Tasks) == 0 {
		s.Tasks = []int{40}
	}
	if len(s.Utilization) == 0 {
		s.Utilization = []float64{2.5}
	}
	if len(s.Procs) == 0 {
		s.Procs = []int{4}
	}
	if len(s.Policies) == 0 {
		s.Policies = []string{"lexicographic"}
	}
	if s.CommTime == 0 {
		s.CommTime = 1
	}
	// Resolve the shared generator knobs to their effective values so
	// the persisted spec in artifacts is fully explicit. The edge-free
	// sentinel (EdgeProb < 0) is kept as-is: collapsing it to 0 here
	// would read as "unset" on a second Normalize and resurrect the
	// generator default.
	g := gen.Config{
		Periods:     s.Periods,
		EdgeProb:    s.EdgeProb,
		MaxInDegree: s.MaxInDegree,
		MemMin:      s.MemMin,
		MemMax:      s.MemMax,
	}.Normalized()
	s.Periods = g.Periods
	if s.EdgeProb >= 0 {
		s.EdgeProb = g.EdgeProb
	}
	s.MaxInDegree = g.MaxInDegree
	s.MemMin = g.MemMin
	s.MemMax = g.MemMax
	for _, n := range s.Tasks {
		if n < 1 {
			return fmt.Errorf("campaign: task count %d < 1", n)
		}
	}
	for _, m := range s.Procs {
		if m < 1 {
			return fmt.Errorf("campaign: processor count %d < 1", m)
		}
	}
	for _, p := range s.Policies {
		if _, err := ParsePolicy(p); err != nil {
			return err
		}
	}
	// Canonicalise the analyzer list (validated, deduplicated, fixed
	// registry order) so every spec naming the same analyzer set — in
	// any order — marshals and hashes identically.
	set, err := analyzers.Parse(s.Analyzers)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	s.Analyzers = set.Names()
	// Canonicalise the phase set the same way. With no analyzers the
	// phase axis is inert (there are no extras to phase), so it is
	// collapsed to the default rather than letting two behaviourally
	// identical sweeps hash apart.
	phases, err := analyzers.ParsePhases(s.AnalyzerPhases)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if len(set) == 0 {
		phases = analyzers.DefaultPhases()
	}
	s.AnalyzerPhases = phases.Names()
	// Duplicate axis values would enumerate identical grid points that
	// share one cell key, double-counting every seed in the aggregates.
	if err := noDups("tasks", s.Tasks); err != nil {
		return err
	}
	if err := noDups("utilization", s.Utilization); err != nil {
		return err
	}
	if err := noDups("procs", s.Procs); err != nil {
		return err
	}
	if err := noDups("policies", s.Policies); err != nil {
		return err
	}
	return nil
}

// Trials enumerates the grid in deterministic order:
// tasks ▸ utilization ▸ procs ▸ policy ▸ seed.
func (s *Spec) Trials() ([]Trial, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	set, err := s.AnalyzerSet()
	if err != nil {
		return nil, err
	}
	phases, err := s.PhaseSet()
	if err != nil {
		return nil, err
	}
	var out []Trial
	for _, n := range s.Tasks {
		for _, u := range s.Utilization {
			for _, m := range s.Procs {
				for _, pol := range s.Policies {
					policy, err := ParsePolicy(pol)
					if err != nil {
						return nil, err
					}
					cell := fmt.Sprintf("N=%d/U=%g/M=%d/%s", n, u, m, pol)
					for k := 0; k < s.Seeds; k++ {
						out = append(out, Trial{
							Index: len(out),
							Cell:  cell,
							Gen: gen.Config{
								Seed:        s.SeedBase + int64(k),
								Tasks:       n,
								Utilization: u,
								Periods:     s.Periods,
								EdgeProb:    s.EdgeProb,
								MaxInDegree: s.MaxInDegree,
								MemMin:      s.MemMin,
								MemMax:      s.MemMax,
							},
							Procs:        m,
							Comm:         s.CommTime,
							Policy:       policy,
							ignoreTiming: s.IgnoreTiming,
							analyzers:    set,
							phases:       phases,
						})
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: spec %q enumerates no trials", s.Name)
	}
	return out, nil
}

// AnalyzerSet resolves the spec's analyzer names into the registry's
// canonical Set (nil for the zero-analyzer fast path).
func (s *Spec) AnalyzerSet() (analyzers.Set, error) {
	set, err := analyzers.Parse(s.Analyzers)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return set, nil
}

// PhaseSet resolves the spec's analyzer-phase names into the canonical
// PhaseSet (the after-only default when none are named).
func (s *Spec) PhaseSet() (analyzers.PhaseSet, error) {
	phases, err := analyzers.ParsePhases(s.AnalyzerPhases)
	if err != nil {
		return analyzers.PhaseSet{}, fmt.Errorf("campaign: %w", err)
	}
	return phases, nil
}

// cellOrder extracts the distinct cell keys of an already-enumerated
// trial list, preserving first appearance.
func cellOrder(trials []Trial) []string {
	var order []string
	seen := map[string]bool{}
	for _, t := range trials {
		if !seen[t.Cell] {
			seen[t.Cell] = true
			order = append(order, t.Cell)
		}
	}
	return order
}

// Hash returns the canonical identity of the sweep: the hex SHA-256 of
// the normalised spec's compact JSON encoding. Two specs hash equal iff
// they enumerate the same trial grid with the same effective knobs, so
// the hash is what binds a journal (and every shard of a sharded run)
// to its campaign. Normalises the spec in place.
func (s *Spec) Hash() (string, error) {
	if err := s.Normalize(); err != nil {
		return "", err
	}
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// LoadSpec reads a JSON sweep specification from path. Unknown keys
// are rejected: a typoed axis name would otherwise silently run the
// default grid and emit a normal-looking artifact for the wrong sweep.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: parsing %s: %w", path, err)
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// noDups rejects repeated values on one grid axis.
func noDups[T comparable](axis string, vals []T) error {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("campaign: duplicate %s value %v", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// ParsePolicy maps a spec policy name to the balancer constant.
func ParsePolicy(name string) (core.Policy, error) {
	switch name {
	case "lexicographic", "":
		return core.PolicyLexicographic, nil
	case "ratio":
		return core.PolicyRatio, nil
	case "memory-only":
		return core.PolicyMemoryOnly, nil
	}
	return 0, fmt.Errorf("campaign: unknown policy %q (want lexicographic|ratio|memory-only)", name)
}
