package campaign

import (
	"bytes"
	"sync"
	"testing"
)

// TestMemoDeterminism pins the prefix-sharing contract: a campaign whose
// workers claim prefix groups produces byte-identical JSON and CSV
// artifacts to the unshared path, at 1, 2, and 8 workers. Running the
// suite under -race additionally checks that workers running different
// groups never touch shared mutable state.
func TestMemoDeterminism(t *testing.T) {
	spec := smokeSpec()
	ref, err := (&Engine{Workers: 1, NoMemo: true}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := ref.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		res, err := (&Engine{Workers: workers}).Run(smokeSpec())
		if err != nil {
			t.Fatalf("memoised workers=%d: %v", workers, err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refJSON, data) {
			t.Fatalf("memoised workers=%d: JSON differs from unmemoised serial run (%d vs %d bytes)",
				workers, len(data), len(refJSON))
		}
		var csv bytes.Buffer
		if err := res.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refCSV.Bytes(), csv.Bytes()) {
			t.Fatalf("memoised workers=%d: CSV differs from unmemoised serial run", workers)
		}
	}
}

// TestPrefixGroups pins what a worker claims: each group holds exactly
// the P policy trials of one grid point and seed, in trial order, and
// groups come in the order their first trial appears. NoMemo gives one
// group per trial.
func TestPrefixGroups(t *testing.T) {
	spec := smokeSpec()
	spec.Policies = []string{"lexicographic", "ratio", "memory-only"}
	trials, err := spec.Trials()
	if err != nil {
		t.Fatal(err)
	}
	groups := prefixGroups(trials, true)
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
	single := prefixGroups(trials, false)
	if len(single) != len(trials) {
		t.Fatalf("NoMemo: %d groups, want one per trial (%d)", len(single), len(trials))
	}
	for i, grp := range single {
		if len(grp) != 1 || grp[0].Index != i {
			t.Fatalf("NoMemo group %d = %v, want trial %d alone", i, grp, i)
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
