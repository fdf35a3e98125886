package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/journal"
)

// The journal-fold workload runs many small campaigns of cheap trials,
// each journaled through journal.Create/Writer.Append at the default
// fsync cadence, read back with journal.Merge and rendered; the merged
// bytes must equal the live run's.

// journalSpec is campaign i of a run: 96 trials of 20 tasks on 4
// processors, three policies, the full analyzer set on both phases.
// Seeds never repeat across campaigns or run seeds. A campaign's fixed
// file work (create, header and close fsyncs, open for merge, remove)
// drifts with the shared host's disk; 96 trials, not 24, spread it
// over more of the per-trial journal work this workload is about.
func journalSpec(seed int64, i int) *campaign.Spec {
	return &campaign.Spec{
		Name:           "journal-fold",
		Seeds:          16,
		SeedBase:       seed<<32 + int64(i)*16,
		Tasks:          []int{20},
		Utilization:    []float64{1.5, 2.5},
		Procs:          []int{4},
		Policies:       []string{"lexicographic", "ratio", "memory-only"},
		Analyzers:      []string{"contention", "moves", "reuse", "schedulability"},
		AnalyzerPhases: []string{"before", "after"},
	}
}

// journalWarmup campaigns of each set-up use indexes no measured
// campaign uses.
const (
	journalWarmup     = 3
	journalWarmupBase = 1 << 22
	journalSetups     = 5
	journalSample     = 120
)

// journalOutcome is one journaled campaign: its live artifacts (the
// reference the merged ones matched) and the timings of its whole path
// and of the merge→render→compare leg alone (the journal "hit").
type journalOutcome struct {
	live           artifacts
	trials         int
	total, hitTime time.Duration
}

// journalCampaign runs spec on the engine with every trial journaled,
// closes the journal, merges it back and checks the merged artifacts
// against the live ones. The journal file is removed afterwards.
func journalCampaign(tr *tracer, path string, spec *campaign.Spec) (journalOutcome, error) {
	defer os.Remove(path)
	t0 := time.Now()
	trace := tr.newTrace()
	root := tr.begin("journaled-campaign", -1, trace)
	defer tr.end(root)

	hdr, err := journal.NewHeader(spec, 0, 1)
	if err != nil {
		return journalOutcome{}, err
	}
	id := tr.begin("journal.Create", root, trace)
	w, err := journal.Create(path, hdr)
	tr.end(id)
	if err != nil {
		return journalOutcome{}, err
	}
	run := tr.begin("campaign.Engine.Run", root, trace)
	eng := &campaign.Engine{Workers: engineWorkers(), Sink: func(r campaign.TrialResult) error {
		id := tr.begin("journal.Writer.Append", run, trace)
		defer tr.end(id)
		return w.Append(r)
	}}
	res, err := eng.Run(spec)
	tr.end(run)
	if err != nil {
		w.Close()
		return journalOutcome{}, err
	}
	id = tr.begin("journal.Writer.Close", root, trace)
	err = w.Close()
	tr.end(id)
	if err != nil {
		return journalOutcome{}, err
	}
	live, err := render(tr, res, root, trace)
	if err != nil {
		return journalOutcome{}, err
	}
	out := journalOutcome{live: live, trials: len(res.Trials)}
	t1 := time.Now()
	if err := mergeAndCheck(tr, path, live, root, trace); err != nil {
		return out, err
	}
	out.hitTime = time.Since(t1)
	out.total = time.Since(t0)
	if tr != nil {
		if fi, err := os.Stat(path); err == nil {
			tr.count("journal.bytes_per_trial", float64(fi.Size())/float64(len(res.Trials)))
		}
		id = tr.begin("campaign.Fold", root, trace)
		_, err := campaign.Fold(spec, res.Trials)
		tr.end(id)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// mergeAndCheck reads the journal back with journal.Merge, renders the
// merged result and compares it with ref.
func mergeAndCheck(tr *tracer, path string, ref artifacts, parent, trace int) error {
	id := tr.begin("journal.Merge", parent, trace)
	merged, err := journal.Merge([]string{path})
	tr.end(id)
	if err != nil {
		return err
	}
	if tr != nil {
		if fi, err := os.Stat(path); err == nil {
			tr.count("journal.merged_bytes", float64(fi.Size()))
		}
	}
	got, err := render(tr, merged, parent, trace)
	if err != nil {
		return err
	}
	return sameBytes("merged journal", ref, got)
}

// journalRows journals already-computed rows (serially, in index
// order), merges the file back and checks the merged artifacts against
// ref — the journal layer measured on another workload's rows.
func journalRows(tr *tracer, path string, spec *campaign.Spec, rows []campaign.TrialResult, ref artifacts) error {
	defer os.Remove(path)
	trace := tr.newTrace()
	root := tr.begin("journal.replay", -1, trace)
	defer tr.end(root)
	hdr, err := journal.NewHeader(spec, 0, 1)
	if err != nil {
		return err
	}
	id := tr.begin("journal.Create", root, trace)
	w, err := journal.Create(path, hdr)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, r := range rows {
		id := tr.begin("journal.Writer.Append", root, trace)
		err := w.Append(r)
		tr.end(id)
		if err != nil {
			w.Close()
			return err
		}
	}
	id = tr.begin("journal.Writer.Close", root, trace)
	err = w.Close()
	tr.end(id)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(path); err == nil {
		tr.count("journal.bytes_per_trial", float64(fi.Size())/float64(len(rows)))
	}
	return mergeAndCheck(tr, path, ref, root, trace)
}

func runJournalFold(cfg runConfig) (*report, error) {
	dir := filepath.Join(cfg.dir, "journals")
	setup := func() (struct{}, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return struct{}{}, err
		}
		for k := 0; k < journalWarmup; k++ {
			if _, err := journalCampaign(nil, filepath.Join(dir, "warmup.jsonl"), journalSpec(cfg.seed, journalWarmupBase+k)); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}
	_, setups, err := repeatSetup(journalSetups, setup, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{setups: setups}

	var campaignMS, hitMS, trialsOf, tracedMS, plainMS []float64
	trials := 0
	budget := cfg.seconds
	if cfg.tr != nil {
		budget /= 2
	}
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		var tr *tracer
		if cfg.tr != nil && i%2 == 1 {
			tr = cfg.tr
		}
		out, err := journalCampaign(tr, filepath.Join(dir, fmt.Sprintf("c%d.jsonl", i)), journalSpec(cfg.seed, i))
		rep.attempted++
		if err != nil {
			fmt.Printf("check failed: campaign %d: %v\n", i, err)
			rep.failed++
			continue
		}
		campaignMS = append(campaignMS, ms(out.total))
		hitMS = append(hitMS, ms(out.hitTime))
		trialsOf = append(trialsOf, float64(out.trials))
		trials += out.trials
		if cfg.tr != nil {
			if tr != nil {
				tracedMS = append(tracedMS, ms(out.total))
			} else {
				plainMS = append(plainMS, ms(out.total))
			}
		}
	}
	fmt.Printf("journal-fold: %d campaigns, %d trials\n", len(campaignMS), trials)

	if cfg.tr != nil {
		rep.overheadPct = 100 * (median(tracedMS)/median(plainMS) - 1)
		return rep, traceJournalLayers(cfg, rep)
	}
	rep.e2e = map[string]float64{
		"trials_per_s":    chunkRate(trialsOf, campaignMS, rateChunkMS),
		"campaign_p50_ms": median(campaignMS),
		"campaign_p90_ms": pct(campaignMS, 0.9),
		"hit_p50_ms":      median(hitMS),
	}
	return rep, nil
}

// traceJournalLayers adds the layer-by-layer trace of a sample of the
// workload's trials and the service probe to a traced journal-fold run.
func traceJournalLayers(cfg runConfig, rep *report) error {
	var trials []campaign.Trial
	for i := 0; i < 10; i++ {
		ts, err := journalSpec(cfg.seed, i).Trials()
		if err != nil {
			return err
		}
		trials = append(trials, ts...)
	}
	kit, err := newTrialKit(journalSpec(cfg.seed, 0))
	if err != nil {
		return err
	}
	sample := sampleTrials(trials, journalSample, cfg.seed)
	if _, _, bad, err := traceTrials(cfg.tr, sample, kit, nil); err != nil {
		return err
	} else {
		rep.attempted += int64(len(sample))
		rep.failed += int64(bad)
	}
	return serviceProbe(cfg, rep)
}
