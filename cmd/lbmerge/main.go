// Command lbmerge folds the shard journals of a multi-host campaign
// back into the single-host artifacts. Each shard journal is produced
// by `lbfarm -shard i/n -journal …` (see docs/journal.md); lbmerge
// verifies every record checksum, that all shards belong to the same
// sweep (spec-hash agreement), and that their index ranges tile the
// full trial enumeration exactly, then replays the engine's ordered
// fold — the JSON and CSV it writes are byte-identical to what one
// `lbfarm` run of the whole spec would have written.
//
// All shard headers must agree on the analyzer set and the analyzer
// phase set the sweep ran with (both are part of the spec hash);
// `-analyzers` and `-analyzer-phases` additionally assert what those
// sets must be, so a scripted pipeline fails fast when a shard was
// produced without the extras (or the before/delta columns) it
// expects.
//
// Usage:
//
//	lbmerge [-out artifacts] [-table-only] [-analyzers a,b] [-analyzer-phases before,after] shard1.jsonl shard2.jsonl ...
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/campaign/analyzers"
	"repro/internal/journal"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmerge: ")
	var (
		out       = flag.String("out", "artifacts", "artifact directory")
		tableOnly = flag.Bool("table-only", false, "print the table but write no artifacts")
		anaFlag   = flag.String("analyzers", "", "assert the shards were produced with exactly this analyzer set (comma-separated, or 'none')")
		phaseFlag = flag.String("analyzer-phases", "", "assert the shards were produced with exactly this analyzer phase set (after | before,after)")

		obsOn       = flag.Bool("obs", true, "time the merge fold and write the runinfo sidecar next to the artifacts, plus <out>/<name>"+obs.FleetInfoSuffix+" when per-shard runinfo sidecars sit next to the input journals; artifacts are byte-identical either way")
		runinfoPath = flag.String("runinfo", "", "write the telemetry sidecar to this path (default <out>/<name>"+obs.RunInfoSuffix+")")
		debugAddr   = flag.String("debug-addr", "", "serve live debug endpoints (expvar /debug/vars, Prometheus /metrics, net/http/pprof /debug/pprof/) on this host:port; port 0 picks one")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: lbmerge [-out dir] [-analyzers a,b] [-analyzer-phases before,after] shard1.jsonl shard2.jsonl ...")
	}

	// The merge is one fold, so its telemetry is a single-recorder set:
	// the fold stage latency plus the end-of-run host/GC facts.
	var set *obs.Set
	if *obsOn {
		set = obs.NewSet(1)
	}
	if *debugAddr != "" {
		bound, _, err := obs.Serve(*debugAddr, set.Snapshot, map[string]func() any{
			"obs": func() any { return set.Snapshot() },
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug endpoints on http://%s/debug/vars, /metrics, and /debug/pprof/", bound)
	}

	rec := set.Aux()
	t0 := rec.Clock()
	res, err := journal.Merge(flag.Args())
	rec.Stamp(obs.StageFold, t0)
	if err != nil {
		log.Fatal(err)
	}
	rec.Add(obs.CounterReplayedTrials, int64(len(res.Trials)))
	if *anaFlag != "" {
		var names []string
		if *anaFlag != "none" {
			names = split(*anaFlag)
		}
		want, err := analyzers.Parse(names)
		if err != nil {
			log.Fatal(err)
		}
		if !slices.Equal(want.Names(), res.Spec.Analyzers) {
			log.Fatalf("shards were produced with analyzers [%s], -analyzers requires [%s]",
				strings.Join(res.Spec.Analyzers, ","), strings.Join(want.Names(), ","))
		}
	}
	if *phaseFlag != "" {
		want, err := analyzers.ParsePhases(split(*phaseFlag))
		if err != nil {
			log.Fatal(err)
		}
		if !slices.Equal(want.Names(), res.Spec.AnalyzerPhases) {
			log.Fatalf("shards were produced with analyzer phases [%s], -analyzer-phases requires [%s]",
				strings.Join(res.Spec.AnalyzerPhases, ","), strings.Join(want.Names(), ","))
		}
	}
	fmt.Printf("merged %d shards into campaign %q", flag.NArg(), res.Spec.Name)
	if len(res.Spec.Analyzers) > 0 {
		fmt.Printf(" (analyzers %s; phases %s)",
			strings.Join(res.Spec.Analyzers, ","), strings.Join(res.Spec.AnalyzerPhases, ","))
	}
	fmt.Println()
	fmt.Print(res.Table())
	if *tableOnly {
		return
	}
	jp, cp, err := res.WriteArtifacts(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifacts: %s %s\n", jp, cp)

	if set != nil {
		hash, err := res.Spec.Hash()
		if err != nil {
			log.Fatal(err)
		}
		ri := obs.NewRunInfo("lbmerge")
		ri.Name = res.Spec.Name
		ri.SpecHash = hash
		ri.Trials = len(res.Trials)
		ri.Workers = 1
		ri.Obs = set.Snapshot()
		ri.Finish(set.Elapsed())
		ripath := *runinfoPath
		if ripath == "" {
			ripath = filepath.Join(*out, res.Spec.Name+obs.RunInfoSuffix)
		}
		if err := ri.Write(ripath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("runinfo: %s\n", ripath)

		if fp := writeFleetInfo(*out, res.Spec.Name, hash, flag.Args()); fp != "" {
			fmt.Printf("fleetinfo: %s\n", fp)
		}
	}
}

// writeFleetInfo is the fold-side fleet passthrough: each `lbfarm
// -shard` run leaves a runinfo sidecar next to its shard journal;
// merging those snapshots (the same order-independent bucket sums the
// coordinator applies to its workers' polled snapshots) yields the
// campaign-level view even for a manually-sharded run that never had a
// coordinator. Shards without a sidecar simply contribute nothing; with
// none at all, no fleetinfo is written.
func writeFleetInfo(out, name, hash string, shardPaths []string) string {
	fi := obs.NewFleetInfo("lbmerge", name, hash, len(shardPaths))
	var snaps []*obs.Snapshot
	for _, p := range shardPaths {
		ri, err := obs.ReadRunInfo(strings.TrimSuffix(p, filepath.Ext(p)) + obs.RunInfoSuffix)
		if err != nil {
			continue
		}
		id := ri.Host.Hostname
		if id == "" {
			id = filepath.Base(p)
		}
		fi.Workers = append(fi.Workers, obs.FleetWorker{ID: id + ":" + ri.Shard, Alive: true, ElapsedNS: ri.ElapsedNS})
		snaps = append(snaps, ri.Obs)
	}
	if len(snaps) == 0 {
		return ""
	}
	fi.Obs = obs.MergeSnapshots(snaps...)
	path := filepath.Join(out, name+obs.FleetInfoSuffix)
	if err := fi.Write(path); err != nil {
		log.Printf("writing fleetinfo: %v", err)
		return ""
	}
	return path
}

// split breaks a comma-separated flag value into trimmed parts.
func split(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
