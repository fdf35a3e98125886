package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// The paper-phase workload sweeps the published paper-regime spec
// (artifacts/paper-phase.json: 240 trials, 300/600 tasks on 16/32
// processors, full analyzer set on both phases) through campaign.Engine
// and checks every sweep's artifacts against the committed bytes.
const (
	paperJSON = "artifacts/paper-phase.json"
	paperCSV  = "artifacts/paper-phase.csv"

	// paperHitsPerSweep re-serves each sweep's artifacts from its rows
	// (campaign.Fold + render) this many times: the paper-phase "hit".
	paperHitsPerSweep = 12
	// paperHeldOut trials of the seed's own paper-regime grid get the
	// differential check (checkHeldOut) in every run.
	paperHeldOut = 6
	// paperTraceSample trials get the layer-by-layer trace.
	paperTraceSample = 24
)

type paperState struct {
	spec   *campaign.Spec
	ref    artifacts
	trials []campaign.Trial
	kit    trialKit
}

// setupPaper loads the committed spec and reference bytes from the
// checkout at root and warms the engine on the sweep's first two
// trials.
func setupPaper(root string) (*paperState, error) {
	raw, err := os.ReadFile(filepath.Join(root, paperJSON))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Spec campaign.Spec `json:"spec"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", paperJSON, err)
	}
	csv, err := os.ReadFile(filepath.Join(root, paperCSV))
	if err != nil {
		return nil, err
	}
	spec := &doc.Spec
	trials, err := spec.Trials()
	if err != nil {
		return nil, err
	}
	kit, err := newTrialKit(spec)
	if err != nil {
		return nil, err
	}
	if _, err := (&campaign.Engine{Workers: engineWorkers(), Lo: 0, Hi: 2}).Run(spec); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &paperState{spec: spec, ref: artifacts{raw, csv}, trials: trials, kit: kit}, nil
}

// heldOutTrials draws the seed's own trials of the paper regime: the
// committed grid with SeedBase moved to 10·seed, so no seed's held-out
// trials overlap another's.
func heldOutTrials(spec *campaign.Spec, seed int64, n int) ([]campaign.Trial, error) {
	held := *spec
	held.SeedBase = 10 * seed
	trials, err := held.Trials()
	if err != nil {
		return nil, err
	}
	return sampleTrials(trials, n, seed), nil
}

// paperSweep runs one sweep and checks its bytes; it returns the result
// so hits and the trace can reuse its rows.
func paperSweep(tr *tracer, st *paperState) (*campaign.Result, error) {
	trace := tr.newTrace()
	root := tr.begin("paper-phase.sweep", -1, trace)
	defer tr.end(root)
	id := tr.begin("campaign.Engine.Run", root, trace)
	res, err := (&campaign.Engine{Workers: engineWorkers()}).Run(st.spec)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	got, err := render(tr, res, root, trace)
	if err != nil {
		return nil, err
	}
	return res, sameBytes("paper-phase sweep", st.ref, got)
}

// paperHit re-serves a finished sweep from its rows and checks the bytes.
func paperHit(tr *tracer, st *paperState, rows []campaign.TrialResult) error {
	trace := tr.newTrace()
	root := tr.begin("paper-phase.hit", -1, trace)
	defer tr.end(root)
	id := tr.begin("campaign.Fold", root, trace)
	res, err := campaign.Fold(st.spec, rows)
	tr.end(id)
	if err != nil {
		return err
	}
	got, err := render(tr, res, root, trace)
	if err != nil {
		return err
	}
	return sameBytes("paper-phase hit", st.ref, got)
}

func runPaperPhase(cfg runConfig) (*report, error) {
	st, setups, err := repeatSetup(5, func() (*paperState, error) { return setupPaper(".") }, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{setups: setups}
	fail := func(err error) {
		rep.attempted++
		if err != nil {
			fmt.Printf("check failed: %v\n", err)
			rep.failed++
		}
	}

	held, err := heldOutTrials(st.spec, cfg.seed, paperHeldOut)
	if err != nil {
		return nil, err
	}
	bad, err := checkHeldOut(held, st.kit)
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(held))
	rep.failed += int64(bad)

	if cfg.tr != nil {
		return rep, tracePaper(cfg, st, rep, fail)
	}

	var sweepMS, hitMS []float64
	start := time.Now()
	var last time.Duration
	for len(sweepMS) == 0 || time.Since(start)+last/2 < cfg.seconds {
		// Each sweep and each hit batch starts on a collected heap, so
		// none pays for the previous one's garbage.
		runtime.GC()
		t0 := time.Now()
		res, err := paperSweep(nil, st)
		if res == nil {
			return nil, err
		}
		sweepMS = append(sweepMS, ms(time.Since(t0)))
		fail(err)
		runtime.GC()
		for h := 0; h < paperHitsPerSweep; h++ {
			t1 := time.Now()
			err := paperHit(nil, st, res.Trials)
			hitMS = append(hitMS, ms(time.Since(t1)))
			fail(err)
		}
		last = time.Since(t0)
	}
	fmt.Printf("paper-phase: %d sweeps of %d trials (ms: %.0f), %d hits\n", len(sweepMS), len(st.trials), sweepMS, len(hitMS))
	rep.e2e = map[string]float64{
		"trials_per_s":    float64(len(st.trials)) / (median(sweepMS) / 1e3),
		"campaign_p50_ms": median(sweepMS),
		"campaign_p90_ms": pct(sweepMS, 0.9),
		"hit_p50_ms":      median(hitMS),
	}
	return rep, nil
}

// tracePaper is the traced paper-phase run: one sweep and one hit under
// spans, the sweep's rows replayed through a journal, a service probe,
// and the layer-by-layer trace of a trial sample.
func tracePaper(cfg runConfig, st *paperState, rep *report, fail func(error)) error {
	res, err := paperSweep(cfg.tr, st)
	if res == nil {
		return err
	}
	fail(err)
	fail(paperHit(cfg.tr, st, res.Trials))
	fail(journalRows(cfg.tr, filepath.Join(cfg.dir, "replay.jsonl"), st.spec, res.Trials, st.ref))
	if err := serviceProbe(cfg, rep); err != nil {
		return err
	}
	rows := make(map[int]campaign.TrialResult, len(res.Trials))
	for _, r := range res.Trials {
		rows[r.Index] = r
	}
	sample := sampleTrials(st.trials, paperTraceSample, cfg.seed)
	plain, traced, bad, err := traceTrials(cfg.tr, sample, st.kit, rows)
	if err != nil {
		return err
	}
	rep.attempted += int64(len(sample))
	rep.failed += int64(bad)
	rep.overheadPct = 100 * (traced/plain - 1)
	return nil
}

// repeatSetup runs setup n times and keeps the last state; every
// earlier one is torn down (teardown may be nil). It returns the kept
// state and each repetition's time in seconds.
func repeatSetup[S any](n int, setup func() (S, error), teardown func(S)) (S, []float64, error) {
	var st S
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown(st)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	// Flush what the build and the set-ups wrote (and removed), so the
	// first timed fsyncs do not wait on that writeback.
	syscall.Sync()
	return st, times, nil
}
