package campaign

import (
	"fmt"
)

// memo.go shares the policy-independent trial prefix across the policy
// cells of a sweep. Every cell of a grid with P policies re-derives the
// same generate→schedule→simulate prefix for each (generator config,
// processors, comm) point, and the balancer builds the same blocks and
// reservation index from it (core.Plan). A worker therefore claims a
// whole prefix group — every pending trial sharing one prefix — computes
// the prefix and the plan once, and runs the group's policy cells one
// after another, each balancing from a private copy of the plan.
//
// Results are byte-identical to the unshared path because the prefix
// computation is deterministic and nothing a cell writes is shared: the
// balancer reads the initial schedule only through the plan and copies
// the plan per pass, the before-report is read-only downstream, and the
// policy-independent analyzer extras — the prefix-only values and, with
// the before phase enabled, the before.* values instrumenting the
// initial schedule — are copied into each trial's payload
// (analyzers.Set.RunSuffix copies the shared map, never mutates it).
// Sharing the before-phase extras is what keeps the phase axis cheap:
// the before analysis runs once per grid point, not once per policy
// cell.
//
// Memory: a group's prefix lives only while its worker runs the group,
// so at most one prefix per worker is resident.

// prefixKey identifies the policy-independent part of a trial: the full
// generator configuration plus the architecture. The generator config is
// rendered whole (%+v walks every field) so a knob added to gen.Config
// later is part of the key by construction — an enumerated field list
// would silently alias trials differing only in the new knob.
func prefixKey(t Trial) string {
	return fmt.Sprintf("%+v|%d|%d", t.Gen, t.Procs, t.Comm)
}

// prefixGroups partitions trials into groups sharing one prefix, in
// order of first appearance, each group in trial order. With share
// unset every trial is a group of its own.
func prefixGroups(trials []Trial, share bool) [][]Trial {
	if !share {
		groups := make([][]Trial, len(trials))
		for i := range trials {
			groups[i] = trials[i : i+1 : i+1]
		}
		return groups
	}
	at := make(map[string]int)
	var groups [][]Trial
	for _, t := range trials {
		key := prefixKey(t)
		g, ok := at[key]
		if !ok {
			g = len(groups)
			at[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], t)
	}
	return groups
}
