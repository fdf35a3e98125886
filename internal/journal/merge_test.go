package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shardPaths runs the test spec as a 3-way shard split, each shard at a
// different worker count, and returns the journal paths.
func shardPaths(t *testing.T, dir string) []string {
	t.Helper()
	paths := make([]string, 3)
	for i := 0; i < 3; i++ {
		paths[i] = filepath.Join(dir, "shard"+string(rune('1'+i))+".jsonl")
		runJournaled(t, paths[i], 1<<i, i, 3) // workers 1, 2, 4
	}
	return paths
}

// TestMergeByteIdentical is the multi-host half of the acceptance
// criterion: a spec split 3 ways, run at different worker counts, and
// merged must produce artifacts byte-identical to the single-host run
// — in any shard order.
func TestMergeByteIdentical(t *testing.T) {
	refJSON, refCSV := refArtifacts(t)
	paths := shardPaths(t, t.TempDir())

	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		shuffled := []string{paths[order[0]], paths[order[1]], paths[order[2]]}
		res, err := Merge(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, gotCSV := artifacts(t, res)
		if !bytes.Equal(gotJSON, refJSON) {
			t.Fatalf("order %v: merged JSON differs from single-host run", order)
		}
		if !bytes.Equal(gotCSV, refCSV) {
			t.Fatalf("order %v: merged CSV differs from single-host run", order)
		}
	}
}

// TestMergeCorruptionFailsLoudly: a flipped byte, a torn tail, a
// foreign spec, a duplicated shard, and a missing shard must each be a
// hard error — never a quietly wrong artifact.
func TestMergeCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	paths := shardPaths(t, dir)

	corrupt := func(mutate func(data []byte) []byte) string {
		t.Helper()
		data, err := os.ReadFile(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "mutant.jsonl")
		if err := os.WriteFile(p, mutate(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	expectErr := func(what, want string, files []string) {
		t.Helper()
		if _, err := Merge(files); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want %q", what, err, want)
		}
	}

	// Flipped byte mid-file → checksum violation.
	flipped := corrupt(func(d []byte) []byte {
		d[len(d)/2] ^= 0x20
		return d
	})
	expectErr("flipped byte", "corrupt record", []string{paths[0], flipped, paths[2]})

	// Torn tail → the shard is incomplete and must be resumed first.
	torn := corrupt(func(d []byte) []byte { return d[:len(d)-7] })
	expectErr("torn tail", "torn tail", []string{paths[0], torn, paths[2]})

	// A shard of a different sweep → spec-hash mismatch.
	other := testSpec()
	other.SeedBase = 100
	foreignPath := filepath.Join(dir, "foreign.jsonl")
	journalRun(t, other, foreignPath, 2, 1, 3)
	expectErr("foreign spec", "shards of different sweeps", []string{paths[0], foreignPath, paths[2]})

	// The same shard twice → overlap.
	expectErr("duplicate shard", "overlapping", []string{paths[0], paths[1], paths[1]})

	// A missing shard → coverage gap.
	expectErr("missing middle shard", "covered by no shard", []string{paths[0], paths[2]})
	expectErr("missing last shard", "covered by no shard", []string{paths[0], paths[1]})
	expectErr("empty merge", "nothing to merge", nil)
}
