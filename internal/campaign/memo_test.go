package campaign

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// artifactBytes renders res's JSON and CSV artifacts.
func artifactBytes(t *testing.T, res *Result) (jsonData, csvData []byte) {
	t.Helper()
	jsonData, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return jsonData, csv.Bytes()
}

// perTrial is the unshared reference: every trial of spec run alone
// through RunTrial, the rows folded as a merge folds them.
func perTrial(t *testing.T, spec *Spec) *Result {
	t.Helper()
	trials, err := spec.Trials()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]TrialResult, len(trials))
	for i, tr := range trials {
		if rows[i], err = RunTrial(tr); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Fold(spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkDeterminism pins the byte-identity contract for one spec: its
// JSON and CSV artifacts equal the per-trial reference at 1, 2 and 8
// workers with telemetry off and on, after Done-row replay
// (crash-resume) of k ∈ {0, 1, 7, n/2, n−1, n} of its n rows at 1, 2, 4
// and 8 workers, and after a 3-shard fold (multi-host merge) whose
// shards each return exactly their range's rows. The reference CSV must
// carry every one of cols.
func checkDeterminism(t *testing.T, spec func() *Spec, cols ...string) {
	t.Helper()
	ref := perTrial(t, spec())
	refJSON, refCSV := artifactBytes(t, ref)
	for _, col := range cols {
		if !bytes.Contains(refCSV, []byte(col)) {
			t.Fatalf("CSV lacks column %q", col)
		}
	}
	check := func(label string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if data, csv := artifactBytes(t, res); !bytes.Equal(data, refJSON) || !bytes.Equal(csv, refCSV) {
			t.Fatalf("%s: artifacts differ from the per-trial reference", label)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		for _, withObs := range []bool{false, true} {
			eng := &Engine{Workers: workers}
			if withObs {
				eng.Obs = obs.NewSet(workers)
			}
			res, err := eng.Run(spec())
			check(fmt.Sprintf("workers=%d obs=%v", workers, withObs), res, err)
		}
	}
	n := len(ref.Trials)
	for _, k := range []int{0, 1, 7, n / 2, n - 1, n} {
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := (&Engine{Workers: workers, Done: append([]TrialResult(nil), ref.Trials[:k]...)}).Run(spec())
			check(fmt.Sprintf("resume k=%d workers=%d", k, workers), res, err)
		}
	}
	var rows []TrialResult
	for i := 0; i < 3; i++ {
		lo, hi := n*i/3, n*(i+1)/3
		res, err := (&Engine{Workers: i + 1, Lo: lo, Hi: hi}).Run(spec())
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(res.Trials) != hi-lo {
			t.Fatalf("shard %d: %d rows, want %d", i, len(res.Trials), hi-lo)
		}
		rows = append(rows, res.Trials...)
	}
	folded, err := Fold(spec(), rows)
	check("3-shard fold", folded, err)
}

// TestMemoDeterminism pins the prefix-sharing contract: a campaign whose
// workers claim prefix groups produces artifacts byte-identical to every
// trial run alone. Running the suite under -race additionally checks
// that workers running different groups never touch shared mutable
// state.
func TestMemoDeterminism(t *testing.T) {
	checkDeterminism(t, smokeSpec)
}

// TestPrefixGroups pins what a worker claims: each group holds exactly
// the P policy trials of one grid point and seed, in trial order, and
// groups come in the order their first trial appears.
func TestPrefixGroups(t *testing.T) {
	spec := smokeSpec()
	spec.Policies = []string{"lexicographic", "ratio", "memory-only"}
	trials, err := spec.Trials()
	if err != nil {
		t.Fatal(err)
	}
	groups := prefixGroups(trials)
	policies := len(spec.Policies)
	if want := len(trials) / policies; len(groups) != want {
		t.Fatalf("%d groups, want one per grid point and seed (%d)", len(groups), want)
	}
	lastFirst := -1
	for g, grp := range groups {
		if len(grp) != policies {
			t.Fatalf("group %d holds %d trials, want the %d policy cells", g, len(grp), policies)
		}
		if grp[0].Index <= lastFirst {
			t.Fatalf("group %d starts at trial %d, after a group starting at %d: not in first-appearance order", g, grp[0].Index, lastFirst)
		}
		lastFirst = grp[0].Index
		for i, tr := range grp {
			if prefixKey(tr) != prefixKey(grp[0]) {
				t.Fatalf("group %d mixes prefixes: %q and %q", g, prefixKey(tr), prefixKey(grp[0]))
			}
			if i > 0 && tr.Index <= grp[i-1].Index {
				t.Fatalf("group %d out of trial order: %d after %d", g, tr.Index, grp[i-1].Index)
			}
			if tr.Policy != trials[grp[0].Index+i*spec.Seeds].Policy {
				t.Fatalf("group %d cell %d is policy %v", g, i, tr.Policy)
			}
		}
	}
}

// TestPrefixResidency checks that a sweep keeps at most one prefix per
// worker: a group is open from its first completed trial to its last,
// and the sink never sees more groups open than there are workers —
// with one worker, each group's trials complete back to back.
func TestPrefixResidency(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		spec := smokeSpec()
		trials, err := spec.Trials()
		if err != nil {
			t.Fatal(err)
		}
		left := map[string]int{}
		for _, tr := range trials {
			left[prefixKey(tr)]++
		}
		var mu sync.Mutex
		open := map[string]bool{}
		peak := 0
		eng := &Engine{Workers: workers, Sink: func(r TrialResult) error {
			mu.Lock()
			defer mu.Unlock()
			key := prefixKey(trials[r.Index])
			open[key] = true
			peak = max(peak, len(open))
			if left[key]--; left[key] == 0 {
				delete(open, key)
			}
			return nil
		}}
		if _, err := eng.Run(spec); err != nil {
			t.Fatal(err)
		}
		if peak > workers {
			t.Fatalf("workers=%d: %d prefixes open at once", workers, peak)
		}
		if len(open) != 0 {
			t.Fatalf("workers=%d: %d prefixes never finished", workers, len(open))
		}
	}
}

// TestPrefixDropsFinishedResults checks that a prefix group's balance
// results live only until their cells use them: the first cell balances
// every cell of the group, and each cell's result is released as soon as
// that cell has finished, so the prefix never holds a finished cell's
// balanced schedule.
func TestPrefixDropsFinishedResults(t *testing.T) {
	spec := smokeSpec()
	spec.Policies = []string{"lexicographic", "ratio", "memory-only"}
	trials, err := spec.Trials()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, group := range prefixGroups(trials) {
		pre := runPrefix(group, nil)
		if pre.is == nil {
			continue // rejected by the substrate: nothing is balanced
		}
		for i, tr := range group {
			r, err := pre.finish(tr, nil)
			if err != nil || r.Outcome != OutcomeOK {
				t.Fatalf("trial %d: outcome %q, err %v", tr.Index, r.Outcome, err)
			}
			if len(pre.results) != len(group) {
				t.Fatalf("trial %d: prefix holds %d results for %d cells", tr.Index, len(pre.results), len(group))
			}
			for j, res := range pre.results {
				if held := res != nil; held != (j > i) {
					t.Fatalf("after cell %d of %d: result of cell %d held = %v", i, len(group), j, held)
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no group was balanced")
	}
}

// TestBalanceWalksShared pins the sharing of the balancer's walks with a
// count, not a timing. On the paper-phase grid points with seed 0, 600
// tasks and 32 processors, the group's three policies would walk every
// block once each (and again on a conservative rerun) if each cell
// balanced alone; sharing walks while the policies agree keeps the
// blocks evaluated under 1.9 times the block count.
func TestBalanceWalksShared(t *testing.T) {
	trials, err := publishedSpec(t, filepath.Join(publishedDir, "paper-phase.json")).Trials()
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, group := range prefixGroups(trials) {
		if tr := group[0]; tr.Gen.Seed != 0 || tr.Gen.Tasks != 600 || tr.Procs != 32 {
			continue
		}
		if len(group) != 3 {
			t.Fatalf("%s: %d policy cells, want 3", group[0].Cell, len(group))
		}
		pre := runPrefix(group, nil)
		if pre.is == nil {
			t.Fatalf("%s: rejected by the substrate", group[0].Cell)
		}
		res, err := (&core.Balancer{}).RunPolicies(core.NewPlan(pre.is), pre.pols)
		if err != nil {
			t.Fatal(err)
		}
		placed := 0
		for _, r := range res {
			placed += r.Placements
		}
		blocks := len(res[0].Blocks)
		t.Logf("%s: %d blocks, %d placements (%.2f×)", group[0].Cell, blocks, placed, float64(placed)/float64(blocks))
		if 10*placed > 19*blocks {
			t.Fatalf("%s: the walks placed %d blocks for %d blocks, want at most 1.9×", group[0].Cell, placed, blocks)
		}
		points++
	}
	if points != 2 {
		t.Fatalf("%d grid points at seed 0, 600 tasks, 32 processors; want the two utilisations", points)
	}
}
