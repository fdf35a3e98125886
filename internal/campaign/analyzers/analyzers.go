// Package analyzers is the registry of named per-trial analyzers for
// the campaign engine. An analyzer inspects one accepted trial — the
// generated task set, the balancing trace, and the before/after
// simulations — and contributes a fixed, namespaced set of scalar
// observables ("extras") to the trial's result. Extras ride the same
// ordered-fold aggregators as the headline metrics, so enabling an
// analyzer adds columns to the JSON/CSV artifacts without disturbing
// their byte-identical-at-any-worker-count guarantee.
//
// Analyzers run over one or two schedule phases (see phases.go): the
// balanced schedule always (the unprefixed keys), and — when the
// sweep enables the before phase — the initial pre-balancing schedule
// too, adding before.<ns>.* and delta.<ns>.* keys that quantify what
// balancing bought per trial.
//
// Determinism contract: an analyzer's Keys are a fixed sorted list, its
// Run returns exactly one finite float64 per key computed from the
// trial's private state alone, and nothing reads clocks, maps in
// iteration order, or shared mutables. Non-finite values (NaN, ±Inf)
// are rejected at the Run boundary with an error naming the analyzer
// and key — encoding/json cannot represent them, and catching the bad
// value when the trial runs beats failing at artifact-write time after
// the whole sweep has burned. The analyzer set and the phase set are
// part of the campaign spec (and therefore of Spec.Hash()), so journals
// written under different analyzer or phase sets can never be silently
// mixed.
package analyzers

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Input is the read-only view of one trial phase handed to every
// analyzer. Analyzers must not mutate any field (the schedules are
// shared with the caller and, under memoisation, across trials).
//
// Which fields are set depends on the phase:
//
//   - TS, Procs, and Comm are always set. Screen is set when the caller
//     already screened TS (the engine's prefix does).
//   - Sched and Rep are the phase's schedule and its simulation: the
//     initial (pre-balance) schedule in the before phase, the balanced
//     one in the after phase. Phase-sensitive analyzers read these two
//     and nothing else, which is what makes them phase-agnostic. (The
//     current analyzers read only Sched; Rep is the deliberate
//     extension point for simulation-reading analyzers, populated in
//     both phases so such an analyzer never has to branch on
//     Balance != nil to pick Before or After.)
//   - Balance and After are set only in the after phase (AfterOnly
//     analyzers read the balancing outcome); Before is set in both
//     schedule phases. All three are nil for PrefixOnly analyzers.
type Input struct {
	TS    *model.TaskSet // the generated task set
	Procs int            // architecture size M
	Comm  model.Time     // inter-processor transfer time C
	// Screen is analysis.CheckSchedulability of TS on Procs when the
	// caller already ran it; nil makes the schedulability analyzer run it.
	Screen *analysis.SchedReport

	Sched *sched.InstSchedule // the phase's schedule
	Rep   *sim.Report         // simulation of the phase's schedule
	// Reuse is sim.MinMemoryWithReuse of Sched when the caller already
	// computed it; nil makes the reuse analyzer compute it.
	Reuse *sim.MemReuseReport

	Balance *core.Result // balancing outcome: moves, blocks, balanced schedule
	Before  *sim.Report  // simulation of the initial (pre-balance) schedule
	After   *sim.Report  // simulation of the balanced schedule
}

// Analyzer is one named, deterministic per-trial instrument.
type Analyzer struct {
	// Name is the registry key (also the extras namespace prefix).
	Name string
	// Keys lists the fully-namespaced extras this analyzer emits,
	// sorted. Run's result is aligned with it, index for index.
	Keys []string
	// NeedsCandidates marks analyzers that read the balancer's
	// per-processor candidate evaluations; the engine turns candidate
	// recording on only when such an analyzer is active, keeping the
	// default hot path allocation-free.
	NeedsCandidates bool
	// PrefixOnly marks analyzers whose Run reads only the
	// policy-independent trial prefix (TS, Procs, Comm — the schedule
	// and balance fields may be nil). The engine evaluates them once
	// per memoised prefix and shares the values across the policy cells
	// of a grid point instead of recomputing per cell. A PrefixOnly
	// analyzer is phase-invariant by construction — its before and
	// after values would be identical — so it never emits before.* or
	// delta.* keys.
	PrefixOnly bool
	// AfterOnly marks analyzers that read the balancing outcome itself
	// (Input.Balance); they have no meaningful value on the
	// pre-balancing schedule and never emit before.* or delta.* keys.
	AfterOnly bool
	// Run computes the extras for one trial phase, one value per entry
	// of Keys. It must be safe for concurrent invocation across trials.
	Run func(in *Input) []float64
}

// phaseSensitive reports whether the analyzer runs over the before
// phase (and therefore gains before.*/delta.* key siblings).
func (a *Analyzer) phaseSensitive() bool { return !a.PrefixOnly && !a.AfterOnly }

// registry holds the analyzers sorted by name — the canonical order
// Parse normalises spec lists into. register keeps it sorted rather
// than relying on init() order: init order follows source-file
// compilation order, and the canonical order feeds Spec.Hash(), so
// renaming a file must never invalidate every existing journal.
var registry []*Analyzer

// reservedNames can never be analyzer names: "before" and "delta" are
// the phase-axis key prefixes, "none" is the CLI sentinel for the
// empty set.
var reservedNames = map[string]bool{"before": true, "delta": true, "none": true}

func register(a *Analyzer) {
	if reservedNames[a.Name] {
		panic(fmt.Sprintf("analyzers: %q is a reserved name", a.Name))
	}
	for _, k := range a.Keys {
		if !strings.HasPrefix(k, a.Name+".") {
			panic(fmt.Sprintf("analyzers: %s key %q outside its namespace", a.Name, k))
		}
	}
	if !sort.StringsAreSorted(a.Keys) {
		panic(fmt.Sprintf("analyzers: %s keys not sorted", a.Name))
	}
	if a.PrefixOnly && a.AfterOnly {
		panic(fmt.Sprintf("analyzers: %s cannot be both PrefixOnly and AfterOnly", a.Name))
	}
	for _, b := range registry {
		if b.Name == a.Name {
			panic(fmt.Sprintf("analyzers: %q registered twice", a.Name))
		}
	}
	i := sort.Search(len(registry), func(j int) bool { return registry[j].Name > a.Name })
	registry = append(registry, nil)
	copy(registry[i+1:], registry[i:])
	registry[i] = a
}

// Names returns every registered analyzer name in canonical order.
func Names() []string {
	out := make([]string, len(registry))
	for i, a := range registry {
		out[i] = a.Name
	}
	return out
}

// Get looks an analyzer up by name.
func Get(name string) (*Analyzer, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Set is a resolved analyzer selection in canonical order. The nil Set
// is the zero-analyzer fast path.
type Set []*Analyzer

// Parse resolves a list of analyzer names into a Set, rejecting unknown
// names and duplicates. The result — and Names of it — is in canonical
// (lexical) order regardless of the input order, so two specs naming
// the same analyzers hash identically.
func Parse(names []string) (Set, error) {
	if len(names) == 0 {
		return nil, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := Get(n); !ok {
			return nil, fmt.Errorf("analyzers: unknown analyzer %q (want %s)", n, strings.Join(Names(), "|"))
		}
		if want[n] {
			return nil, fmt.Errorf("analyzers: analyzer %q named twice", n)
		}
		want[n] = true
	}
	set := make(Set, 0, len(want))
	for _, a := range registry {
		if want[a.Name] {
			set = append(set, a)
		}
	}
	return set, nil
}

// Names returns the set's analyzer names in canonical order.
func (s Set) Names() []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, len(s))
	for i, a := range s {
		out[i] = a.Name
	}
	return out
}

// Keys returns the union of the set's after-phase extras keys, sorted.
// Namespacing makes the per-analyzer key lists disjoint by
// construction.
func (s Set) Keys() []string {
	if len(s) == 0 {
		return nil
	}
	var out []string
	for _, a := range s {
		out = append(out, a.Keys...)
	}
	sort.Strings(out)
	return out
}

// BeforeKeys returns the unprefixed keys that gain before.* and
// delta.* siblings when the before phase is enabled: the keys of every
// phase-sensitive analyzer (neither PrefixOnly nor AfterOnly), sorted.
func (s Set) BeforeKeys() []string {
	var out []string
	for _, a := range s {
		if a.phaseSensitive() {
			out = append(out, a.Keys...)
		}
	}
	sort.Strings(out)
	return out
}

// PhasedKeys returns the full extras key set the phase selection
// produces, sorted: the after-phase keys, plus the before.* and
// delta.* siblings of every phase-sensitive key when the before phase
// is enabled. This is the key set journal replay and merge validate
// rows against.
func (s Set) PhasedKeys(phases PhaseSet) []string {
	out := s.Keys()
	if !phases.ContainsBefore() {
		return out
	}
	for _, k := range s.BeforeKeys() {
		out = append(out, BeforePrefix+k, DeltaPrefix+k)
	}
	sort.Strings(out)
	return out
}

// NeedsCandidates reports whether any analyzer in the set needs the
// balancer's candidate recording.
func (s Set) NeedsCandidates() bool {
	for _, a := range s {
		if a.NeedsCandidates {
			return true
		}
	}
	return false
}

// Run executes every analyzer of the set over one trial (after phase
// only) and returns the merged extras payload, or nil for the empty
// set.
func (s Set) Run(in *Input) (map[string]float64, error) {
	pre, err := s.RunPrefix(in)
	if err != nil {
		return nil, err
	}
	return s.RunSuffix(in, pre, DefaultPhases())
}

// RunPrefix executes only the PrefixOnly analyzers — Input needs just
// TS, Procs, and Comm. The campaign engine calls it once per memoised
// prefix, so the policy cells sharing a grid point share one screen.
func (s Set) RunPrefix(in *Input) (map[string]float64, error) {
	return s.runMatching(in, func(a *Analyzer) bool { return a.PrefixOnly }, "", nil)
}

// RunBefore executes the phase-sensitive analyzers over the
// pre-balancing schedule (Input.Sched/Rep must be the initial schedule
// and its simulation), writing each value under its "before."-prefixed
// key into out (allocated on first need, so the empty set stays nil).
// Like RunPrefix it reads nothing policy-dependent: the campaign
// engine calls it once per memoised prefix and shares the map across
// the policy cells of a grid point.
func (s Set) RunBefore(in *Input, out map[string]float64) (map[string]float64, error) {
	return s.runMatching(in, (*Analyzer).phaseSensitive, BeforePrefix, out)
}

// RunSuffix executes the policy-dependent after-phase analyzers and
// merges the precomputed prefix extras (prefix-only values plus, with
// the before phase on, the before.* values) into the result. When the
// phase set enables the before phase, the delta.* keys are computed
// here as after − before. The prefix map is copied, never retained or
// mutated — a shared prefix hands the same map to every policy cell of
// its grid point.
func (s Set) RunSuffix(in *Input, prefix map[string]float64, phases PhaseSet) (map[string]float64, error) {
	var out map[string]float64
	if len(prefix) > 0 {
		out = make(map[string]float64, len(prefix))
		for k, v := range prefix {
			out[k] = v
		}
	}
	out, err := s.runMatching(in, func(a *Analyzer) bool { return !a.PrefixOnly }, "", out)
	if err != nil {
		return nil, err
	}
	if phases.ContainsBefore() {
		// Walk the analyzers' fixed key lists directly rather than
		// materialising BeforeKeys(): this runs once per accepted trial,
		// and the sorted union would be an allocation+sort repeated
		// thousands of times per sweep for no behavioural difference
		// (map insertion order is irrelevant).
		for _, a := range s {
			if !a.phaseSensitive() {
				continue
			}
			for _, k := range a.Keys {
				d := out[k] - out[BeforePrefix+k]
				if math.IsNaN(d) || math.IsInf(d, 0) {
					return nil, fmt.Errorf("analyzers: delta of %q is %v (before %v, after %v) — non-finite extras cannot be encoded into the JSON artifact",
						k, d, out[BeforePrefix+k], out[k])
				}
				out[DeltaPrefix+k] = d
			}
		}
	}
	return out, nil
}

// runMatching runs the analyzers selected by match into out (allocated
// on first need, so the empty set stays nil), prefixing every key with
// keyPrefix. Each value is validated finite at this boundary: a NaN or
// ±Inf extra would otherwise survive the whole sweep and only explode
// when encoding/json refuses it at artifact-write time.
func (s Set) runMatching(in *Input, match func(*Analyzer) bool, keyPrefix string, out map[string]float64) (map[string]float64, error) {
	for _, a := range s {
		if !match(a) {
			continue
		}
		vals := a.Run(in)
		if len(vals) != len(a.Keys) {
			panic(fmt.Sprintf("analyzers: %s returned %d values for %d keys", a.Name, len(vals), len(a.Keys)))
		}
		if out == nil {
			out = make(map[string]float64)
		}
		for i, k := range a.Keys {
			if v := vals[i]; math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("analyzers: %s emitted %v for %q — non-finite extras cannot be encoded into the JSON artifact", a.Name, v, keyPrefix+k)
			}
			out[keyPrefix+k] = vals[i]
		}
	}
	return out, nil
}
