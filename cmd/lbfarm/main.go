// Command lbfarm runs parallel experiment campaigns over the full
// pipeline (generate → schedule → balance → simulate → analyze) using
// the internal/campaign engine. A sweep is the cross product of task
// counts, utilisations, processor counts, and cost policies, with a
// fixed number of seeds per cell; trials are fanned out over a worker
// pool and the aggregates are bit-identical for every worker count.
//
// Usage:
//
//	lbfarm -tasks 100,200 -util 2,3 -procs 4,8 -seeds 50
//	lbfarm -spec sweep.json -workers 16 -out artifacts
//	lbfarm -spec sweep.json -journal journals/sweep.jsonl -resume -progress
//	lbfarm -spec sweep.json -shard 2/3   # then lbmerge the shard journals
//	lbfarm -worker -coord http://head:8800 -worker-dir /scratch/jobs
//	lbfarm -tasks 100 -analyzers schedulability,moves,contention,reuse
//	lbfarm -tasks 100 -analyzers contention,reuse -analyzer-phases before,after
//
// -analyzers attaches named per-trial analyzers (see docs/analyzers.md):
// accepted trials then carry a namespaced extras payload (schedulability
// margins, move-trace summaries, contention stats, memory-reuse
// accounting) that folds into the artifacts as additional metric
// columns. -analyzer-phases before,after additionally runs the
// phase-sensitive analyzers over the initial pre-balancing schedule,
// adding before.<ns>.* and delta.<ns>.* columns that quantify per cell
// what the balancing step bought. The analyzer set and the phase set
// are part of the sweep identity — journals written under one set
// refuse to resume or merge under another.
//
// With -journal, every completed trial is appended to a checksummed
// journal as it finishes, and -resume continues a killed sweep from
// that journal, skipping the journaled trials while still producing
// byte-identical artifacts. -shard i/n runs only the i-th index range
// of the trial grid and writes a shard journal (the artifacts of a
// sharded sweep come from lbmerge). See docs/journal.md.
//
// SIGINT/SIGTERM drain the sweep instead of killing it: in-flight
// trials finish and reach the journal, the journal tail is synced, and
// the process exits with code 3 after printing the resume command.
//
// With -worker, lbfarm serves jobs from an lbfarmd -fleet daemon instead
// of running its own sweep: it registers with the daemon at -coord, and
// each job carries its spec and shard range, is journaled under
// -worker-dir, and is collected by the daemon's per-campaign
// coordinator over HTTP. Every status reply carries the worker's
// telemetry snapshot, which is all the coordinator reads of it; the
// job port also serves /debug/vars and /metrics for operators. See
// docs/distributed.md.
//
// Artifacts: <out>/<name>.json (spec + per-cell aggregates + trials)
// and <out>/<name>.csv (long-form aggregate table); the text summary
// goes to stdout. See docs/campaign.md for the schema.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/analyzers"
	"repro/internal/coord"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/progress"
)

// Exit codes beyond the usual 0/1: a drained interrupt is not a
// failure, and scripts (and the resume workflow) need to tell the two
// apart.
const exitInterrupted = 3

// flushProfile stops any active pprof capture; every fatal exit routes
// through it so -cpuprofile stays parseable even when the run aborts
// (log.Fatal's os.Exit skips defers).
var flushProfile = func() {}

func fatal(v ...any) {
	flushProfile()
	log.Fatal(v...)
}

func fatalf(format string, v ...any) {
	flushProfile()
	log.Fatalf(format, v...)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbfarm: ")
	var (
		specPath  = flag.String("spec", "", "JSON sweep specification (overrides the grid flags)")
		name      = flag.String("name", "campaign", "campaign name (artifact basename)")
		seeds     = flag.Int("seeds", 20, "seeds per grid cell")
		seedBase  = flag.Int64("seed-base", 0, "first seed")
		tasks     = flag.String("tasks", "40", "comma-separated task counts")
		util      = flag.String("util", "2.5", "comma-separated target utilisations")
		procs     = flag.String("procs", "4", "comma-separated processor counts")
		policies  = flag.String("policies", "lexicographic", "comma-separated policies: lexicographic|ratio|memory-only")
		periods   = flag.String("periods", "", "comma-separated harmonic period ladder (empty = generator default)")
		comm      = flag.Int64("comm", 1, "inter-processor transfer time C")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		out       = flag.String("out", "artifacts", "artifact directory")
		noTrials  = flag.Bool("table-only", false, "print the table but write no artifacts")
		anaFlag   = flag.String("analyzers", "", "comma-separated per-trial analyzers ("+strings.Join(analyzers.Names(), "|")+", or 'none'); overrides the spec's list and becomes part of the sweep identity")
		phaseFlag = flag.String("analyzer-phases", "", "schedule phases the analyzers run over (after | before,after); overrides the spec's list and becomes part of the sweep identity")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")

		journalPath = flag.String("journal", "", "append completed trials to this checksummed journal (default with -shard: journals/<name>.shard<i>of<n>.jsonl)")
		resume      = flag.Bool("resume", false, "resume from the journal at -journal, skipping already-journaled trials")
		shardSpec   = flag.String("shard", "", "run only shard i/n of the trial grid (1-based, e.g. 2/3); implies a journal and skips artifact writing")
		progress    = flag.Bool("progress", false, "print a periodic progress line (trials done/total, accept ratio, ETA, stage breakdown) to stderr")

		obsOn       = flag.Bool("obs", true, "collect run telemetry (per-stage latency, event counters) and write the runinfo sidecar; artifacts are byte-identical either way")
		runinfoPath = flag.String("runinfo", "", "write the telemetry sidecar to this path (default <out>/<name>"+obs.RunInfoSuffix+", or next to the shard journal)")
		debugAddr   = flag.String("debug-addr", "", "serve live debug endpoints (expvar /debug/vars with the obs snapshot, net/http/pprof /debug/pprof/) on this host:port; port 0 picks one")

		workerMode = flag.Bool("worker", false, "serve mode: take jobs from an lbfarmd -fleet daemon instead of running a sweep (the grid/spec flags are ignored; the spec arrives with each job)")
		listen     = flag.String("listen", "127.0.0.1:0", "worker mode: serve the job API on this host:port (port 0 picks one)")
		advertise  = flag.String("advertise", "", "worker mode: address to register with the coordinator (default: the bound -listen address, with this host's name when unspecified)")
		coordURL   = flag.String("coord", "", "worker mode: lbfarmd -fleet base URL to register with (jobs arrive only after registering)")
		workerDir  = flag.String("worker-dir", "worker-journals", "worker mode: directory for per-job shard journals")
		workerID   = flag.String("worker-id", "", "worker mode: stable worker identity (default host:pid)")
		heartbeat  = flag.Duration("heartbeat", 2*time.Second, "worker mode: re-register with -coord this often; the periodic register is the heartbeat")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	flushProfile = func() { stopProf() }

	if *workerMode {
		var set *obs.Set
		if *obsOn {
			set = obs.NewSet(*workers)
		}
		runWorker(*listen, *advertise, *coordURL, *workerDir, *workerID, *workers, *heartbeat, set)
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
		return
	}

	var spec *campaign.Spec
	if *specPath != "" {
		s, err := campaign.LoadSpec(*specPath)
		if err != nil {
			fatal(err)
		}
		spec = s
	} else {
		spec = &campaign.Spec{
			Name:        *name,
			Seeds:       *seeds,
			SeedBase:    *seedBase,
			Tasks:       ints(*tasks),
			Utilization: floats(*util),
			Procs:       ints(*procs),
			Policies:    split(*policies),
			Periods:     times(*periods),
			CommTime:    model.Time(*comm),
		}
		if err := spec.Normalize(); err != nil {
			fatal(err)
		}
	}
	// -analyzers and -analyzer-phases override whatever the spec carries
	// ('none' clears an inherited analyzer list). Both lists are folded
	// into the spec hash, so a journaled/sharded sweep is bound to its
	// analyzer and phase sets from here on.
	if *anaFlag != "" {
		if *anaFlag == "none" {
			spec.Analyzers = nil
		} else {
			spec.Analyzers = split(*anaFlag)
		}
	}
	if *phaseFlag != "" {
		spec.AnalyzerPhases = split(*phaseFlag)
	}
	if *anaFlag != "" || *phaseFlag != "" {
		if err := spec.Normalize(); err != nil {
			fatal(err)
		}
	}
	// Normalize collapses the phase set to the default when no analyzers
	// are attached (there are no extras to phase); say so rather than
	// letting the flag silently vanish from the sweep identity.
	if *phaseFlag != "" && len(spec.Analyzers) == 0 {
		log.Printf("note: -analyzer-phases %s has no effect without analyzers; running with the default phase set", *phaseFlag)
	}

	trials, err := spec.Trials()
	if err != nil {
		fatal(err)
	}
	shardIdx, shardCnt, err := parseShard(*shardSpec)
	if err != nil {
		fatal(err)
	}
	// -shard 1/1 is the degenerate single-shard run: it still follows
	// the shard workflow (journal written, artifacts left to lbmerge).
	sharded := *shardSpec != ""
	lo, hi := journal.ShardRange(len(trials), shardIdx, shardCnt)

	// A sharded run's product is its journal; default the path so the
	// merge workflow needs no flag bookkeeping.
	path := *journalPath
	if path == "" && sharded {
		path = filepath.Join("journals", fmt.Sprintf("%s.shard%dof%d.jsonl", spec.Name, shardIdx+1, shardCnt))
	}
	if *resume && path == "" {
		fatal("-resume requires -journal (or -shard)")
	}

	// Telemetry. A nil set disables it end to end — every recorder
	// handed out is nil and every observation is a single branch — and
	// the artifacts are byte-identical either way.
	var set *obs.Set
	if *obsOn {
		set = obs.NewSet(*workers)
	}
	if *debugAddr != "" {
		specHash, err := spec.Hash()
		if err != nil {
			fatal(err)
		}
		bound, _, err := obs.Serve(*debugAddr, set.Snapshot, map[string]func() any{
			"obs": func() any { return set.Snapshot() },
			"lbfarm": func() any {
				return map[string]any{"name": spec.Name, "spec_hash": specHash, "trials": hi - lo}
			},
		})
		if err != nil {
			fatal(err)
		}
		log.Printf("debug endpoints on http://%s/debug/vars, /metrics, and /debug/pprof/", bound)
	}

	var (
		w    *journal.Writer
		done []campaign.TrialResult
	)
	if path != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fatal(err)
		}
		hdr, err := journal.NewHeader(spec, shardIdx, shardCnt)
		if err != nil {
			fatal(err)
		}
		if *resume {
			w, done, err = journal.Resume(path, hdr, set.Aux())
			if err != nil {
				fatal(err)
			}
			log.Printf("resuming %s: %d of %d trials already journaled", path, len(done), hi-lo)
		} else {
			w, err = journal.Create(path, hdr)
			if err != nil {
				fatal(err)
			}
			w.Obs = set.Aux()
		}
	}

	eng := &campaign.Engine{Workers: *workers, Obs: set}

	// SIGINT/SIGTERM drain: workers stop claiming trials, in-flight
	// trials finish and reach the journal, and the run exits with a
	// distinct code and a ready-to-paste resume command. A second signal
	// falls through to the default handler (immediate death) — that is
	// what the journal's torn-tail recovery is for.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		log.Printf("%v: draining — in-flight trials will finish and reach the journal (repeat to kill)", sig)
		signal.Stop(sigc)
		close(stop)
	}()
	eng.Stop = stop

	// The sink feeds the progress counters; it runs concurrently on
	// every worker, after the journal append when there is a journal.
	var doneN, okN atomic.Int64
	doneN.Store(int64(len(done)))
	for _, r := range done {
		if r.Outcome == campaign.OutcomeOK {
			okN.Add(1)
		}
	}
	eng.Sink = func(r campaign.TrialResult) error {
		doneN.Add(1)
		if r.Outcome == campaign.OutcomeOK {
			okN.Add(1)
		}
		return nil
	}
	var stopProgress func()
	if *progress {
		stopProgress = startProgress(&doneN, &okN, int64(len(done)), int64(hi-lo), set)
	}

	// The journaled run syncs and closes the journal on every return,
	// so the resume promise below is honest once it returns.
	var res *campaign.Result
	if w != nil {
		res, err = w.Run(eng, spec)
	} else {
		res, err = eng.Run(spec)
	}
	if stopProgress != nil {
		stopProgress()
	}
	if errors.Is(err, campaign.ErrInterrupted) {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
		if path == "" {
			log.Printf("interrupted after %d of %d trials; nothing was journaled (run with -journal to make interrupted sweeps resumable)", doneN.Load(), hi-lo)
			os.Exit(exitInterrupted)
		}
		fmt.Printf("interrupted: %d of %d trials journaled to %s\nresume with: %s\n",
			doneN.Load(), hi-lo, path, resumeCommand(os.Args, *resume))
		os.Exit(exitInterrupted)
	}
	if err != nil {
		fatal(err)
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())

	// The telemetry sidecar goes next to the run's primary product: the
	// shard journal for sharded runs, the artifact pair otherwise. With
	// -table-only there is no product directory, so the sidecar is only
	// written when -runinfo names a path explicitly.
	ripath := *runinfoPath
	shardLabel := ""
	if sharded {
		shardLabel = fmt.Sprintf("%d/%d", shardIdx+1, shardCnt)
		if ripath == "" {
			ripath = strings.TrimSuffix(path, filepath.Ext(path)) + obs.RunInfoSuffix
		}
	} else if ripath == "" && !*noTrials {
		ripath = filepath.Join(*out, spec.Name+obs.RunInfoSuffix)
	}

	if sharded {
		fmt.Printf("shard %d/%d (trials [%d,%d) of %d) journaled to %s — merge the shards with lbmerge\n",
			shardIdx+1, shardCnt, lo, hi, len(trials), path)
		writeRunInfo(ripath, set, spec, shardLabel, hi-lo, res.Workers)
		return
	}
	if *noTrials {
		writeRunInfo(ripath, set, spec, "", hi-lo, res.Workers)
		return
	}
	jp, cp, err := res.WriteArtifacts(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifacts: %s %s\n", jp, cp)
	writeRunInfo(ripath, set, spec, "", hi-lo, res.Workers)
}

// writeRunInfo merges the run's telemetry and writes the sidecar. A nil
// set (-obs=false) or empty path skips it; the sidecar is deliberately
// outside the artifact byte-identity contract (see internal/obs).
func writeRunInfo(path string, set *obs.Set, spec *campaign.Spec, shard string, trials, workers int) {
	if set == nil || path == "" {
		return
	}
	hash, err := spec.Hash()
	if err != nil {
		fatal(err)
	}
	ri := obs.NewRunInfo("lbfarm")
	ri.Name = spec.Name
	ri.SpecHash = hash
	ri.Shard = shard
	ri.Trials = trials
	ri.Workers = workers
	ri.Obs = set.Snapshot()
	ri.Finish(set.Elapsed())
	if err := ri.Write(path); err != nil {
		fatal(err)
	}
	fmt.Printf("runinfo: %s\n", path)
}

// resumeCommand rebuilds the interrupted invocation as a ready-to-paste
// resume: the same argv (spec, grid, journal, and shard flags carry the
// sweep identity) plus -resume when it was not already there.
func resumeCommand(argv []string, alreadyResume bool) string {
	cmd := strings.Join(argv, " ")
	if !alreadyResume {
		cmd += " -resume"
	}
	return cmd
}

// runWorker is the -worker serve mode: stand up a coord.WorkerServer,
// announce to the coordinator (when -coord is set), and serve jobs until
// SIGINT/SIGTERM — then drain the running job (its journal tail synced,
// ready for re-dispatch or resume) and exit cleanly.
func runWorker(listen, advertise, coordURL, dir, id string, workers int, heartbeat time.Duration, set *obs.Set) {
	ws, err := coord.NewWorkerServer(coord.WorkerConfig{
		ID: id, Dir: dir, Workers: workers, Obs: set, Logf: log.Printf,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	addr, err := advertiseAddr(advertise, ln.Addr().String())
	if err != nil {
		fatal(err)
	}
	srv := obs.NewServer(ws.Handler())
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()
	log.Printf("worker %s serving jobs on %s (advertised as %s)", ws.ID(), ln.Addr(), addr)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if coordURL != "" {
		go coord.Announce(ctx, coordURL, ws.ID(), addr, heartbeat, log.Printf)
	}
	<-ctx.Done()
	log.Printf("signal: draining — the running job's journal is synced for re-dispatch")
	ws.Drain()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = srv.Shutdown(sctx)
}

// advertiseAddr picks the address workers register under: the explicit
// -advertise value, or the bound listen address with an unspecified host
// (0.0.0.0/::) replaced by this host's name so the coordinator can dial
// back across the cluster.
func advertiseAddr(advertise, bound string) (string, error) {
	if advertise != "" {
		return advertise, nil
	}
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return "", err
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		if host, err = os.Hostname(); err != nil {
			return "", err
		}
	}
	return net.JoinHostPort(host, port), nil
}

// parseShard reads "i/n" (1-based) into a 0-based shard index and the
// shard count; the empty string is the unsharded run 0 of 1.
func parseShard(s string) (idx, count int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(strings.TrimSpace(i))
		if err == nil {
			count, err = strconv.Atoi(strings.TrimSpace(n))
		}
	}
	if !ok || err != nil || count < 1 || idx < 1 || idx > count {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n with 1 ≤ i ≤ n, e.g. 2/3)", s)
	}
	return idx - 1, count, nil
}

// startProgress prints a progress line to stderr every few seconds:
// trials done/total, accept ratio over the observed trials, an ETA
// extrapolated from the live completion rate (journal-replayed trials
// are excluded from the rate), and — with telemetry on — the top
// pipeline stages by time share. The formatting and rate arithmetic
// live in internal/progress as pure, unit-tested functions of injected
// counters and channels; this wrapper only owns the ticker and the
// clock. The returned func stops the ticker and waits for the emitter
// goroutine to print its final line and exit, so the last visible line
// is always the completed one (progress.Loop holds the ordering
// guarantee; a stale mid-interval tick can never print after it).
func startProgress(doneN, okN *atomic.Int64, base, total int64, set *obs.Set) func() {
	start := time.Now()
	line := func() string {
		s := progress.Line(doneN.Load(), okN.Load(), base, total, time.Since(start))
		if snap := set.Snapshot(); snap != nil {
			totals := make(map[string]int64, len(snap.Stages))
			for name, st := range snap.Stages {
				totals[name] = st.TotalNS
			}
			if b := progress.Breakdown(totals, 3); b != "" {
				s += ", " + b
			}
		}
		return s
	}
	tick := time.NewTicker(2 * time.Second)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		progress.Loop(tick.C, quit, line, func(s string) {
			fmt.Fprintf(os.Stderr, "lbfarm: %s\n", s)
		})
	}()
	return func() {
		tick.Stop()
		close(quit)
		<-done
	}
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func ints(s string) []int {
	var out []int
	for _, p := range split(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			fatalf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out
}

func floats(s string) []float64 {
	var out []float64
	for _, p := range split(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fatalf("bad float %q", p)
		}
		out = append(out, v)
	}
	return out
}

func times(s string) []model.Time {
	var out []model.Time
	for _, p := range split(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			fatalf("bad period %q", p)
		}
		out = append(out, model.Time(v))
	}
	return out
}
