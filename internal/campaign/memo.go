package campaign

import (
	"fmt"
)

// memo.go shares the policy-independent part of a trial across the
// policy cells of a sweep. Every cell of a grid with P policies
// re-derives the same generate→schedule→simulate prefix for each
// (generator config, processors, comm) point, the balancer builds the
// same blocks and reservation index from it (core.Plan), and the
// balancer's walk over the blocks evaluates the same processors for
// every policy until the policies' picks differ. A worker therefore
// claims a whole prefix group — every pending trial sharing one prefix —
// and computes the prefix once. The first cell's balance stage builds
// the plan and balances every cell of the group in one
// core.Balancer.RunPolicies call: the policies share one walk while
// they agree and fork it where their picks differ. The cells then run
// one after another, each from its own result.
//
// Results are byte-identical to running each trial alone (RunTrial)
// because the prefix computation is deterministic and nothing a cell
// writes is shared:
// RunPolicies gives each policy the result a balancing run of its own
// would, the plan is never written, the before-report is read-only
// downstream, and the policy-independent analyzer extras — the
// prefix-only values and, with the before phase enabled, the before.*
// values instrumenting the initial schedule — are copied into each
// trial's payload (analyzers.Set.RunSuffix copies the shared map, never
// mutates it). Sharing the before-phase extras is what keeps the phase
// axis cheap: the before analysis runs once per grid point, not once per
// policy cell.
//
// Memory: a group's prefix lives only while its worker runs the group,
// so at most one prefix per worker is resident. The group's balance
// results are all made at once, but the prefix drops each one as soon
// as its cell has used it.

// prefixKey identifies the policy-independent part of a trial: the full
// generator configuration plus the architecture. The generator config is
// rendered whole (%+v walks every field) so a knob added to gen.Config
// later is part of the key by construction — an enumerated field list
// would silently alias trials differing only in the new knob.
func prefixKey(t Trial) string {
	return fmt.Sprintf("%+v|%d|%d", t.Gen, t.Procs, t.Comm)
}

// prefixGroups partitions trials into groups sharing one prefix, in
// order of first appearance, each group in trial order.
func prefixGroups(trials []Trial) [][]Trial {
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
