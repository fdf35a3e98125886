// Command lbfarmd is the campaign service: sweeps as a long-lived
// daemon instead of one-shot lbfarm invocations. Clients POST campaign
// specs, the daemon queues and executes them with journal-backed
// durability, streams progress over SSE, and serves finished artifacts
// from a content-addressed cache keyed by spec hash — re-submitting an
// identical spec returns the first run's bytes with zero trials
// re-executed. See docs/service.md for the endpoint reference.
//
// Usage:
//
//	lbfarmd -listen :8800 -data /var/lib/lbfarmd
//	curl -d @sweep.json http://host:8800/v1/campaigns
//	curl http://host:8800/v1/campaigns/<hash>
//	curl -N http://host:8800/v1/campaigns/<hash>/events
//	curl -O http://host:8800/v1/artifacts/<hash>.json
//
// Execution is pluggable. By default campaigns run on the in-process
// engine; with -fleet they dispatch to a registered worker fleet
// through an embedded per-campaign coordinator, and produce
// byte-identical artifacts either way. -fleet is the one automated
// distributed path (lbfarm -shard + lbmerge is the offline one):
//
//	lbfarmd -listen :8800 -data /var/lib/lbfarmd -fleet
//	lbfarm -worker -listen :9001 -coord http://daemonhost:8800
//
// Workers register against the daemon itself (or against a separate
// -coord-listen address) and serve every campaign it admits; the
// coordinator flags (-splits, -liveness, -backoff-*, …) tune leasing
// and retries. A running fleet campaign's status report embeds the live
// lease table and worker pool under "fleet", its event log lands at
// <journal-dir>/<hash>.fleet/<name>.events.jsonl, and its artifact set
// gains the merged fleet telemetry as <hash>.fleetinfo.json.
//
// Durability: every campaign transition is persisted under -data, and
// every running campaign journals each trial (locally, or as fetched
// shard journals in fleet mode). A killed daemon restarts into the
// same -data/-journal-dir and resumes where it stopped — queued
// campaigns re-queue, interrupted ones replay their journals and
// execute only the missing trials, and finished artifact bytes are
// unaffected (resume is byte-identical by construction).
//
// SIGINT/SIGTERM drain: running engines stop claiming trials,
// in-flight trials reach their journals, and the process exits — with
// code 3 when the signal caught campaigns mid-run (re-start to finish
// them), 0 otherwise.
//
// GET /metrics serves lbfarmd_ control series plus the merged
// telemetry of everything running (and, in fleet mode, the lbfleet_
// families plus the lbcoord_ lease gauge and fault counters); GET
// /debug/vars and /debug/pprof/ are the usual live-debug surface. See
// docs/observability.md.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/service"
)

const exitInterrupted = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbfarmd: ")
	var (
		listen        = flag.String("listen", "127.0.0.1:8800", "serve the campaign API on this host:port (port 0 picks a free one)")
		dataDir       = flag.String("data", "", "state directory: campaign records and the artifact cache (required)")
		journalDir    = flag.String("journal-dir", "", "directory for in-flight trial journals (default <data>/journals)")
		queueDepth    = flag.Int("queue", 64, "admission queue capacity; submissions beyond it are refused with 429")
		maxRuns       = flag.Int("runs", 1, "campaigns to execute concurrently")
		workers       = flag.Int("workers", 0, "engine worker pool per campaign (0 = GOMAXPROCS divided across -runs)")
		oversubscribe = flag.Bool("oversubscribe", false, "allow -runs × -workers to exceed GOMAXPROCS instead of capping the per-campaign pool")

		fleet       = flag.Bool("fleet", false, "execute campaigns on the registered worker fleet (lbfarm -worker -coord http://this-daemon) instead of the local engine")
		coordListen = flag.String("coord-listen", "", "additionally serve the worker registration API on this separate host:port (default: registration rides -listen)")
	)
	opts := coord.DefaultOptions()
	opts.Bind(flag.CommandLine)
	flag.Parse()
	if *dataDir == "" {
		log.Fatal("-data is required")
	}
	if *journalDir == "" {
		*journalDir = filepath.Join(*dataDir, "journals")
	}

	store, err := service.OpenFSStore(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	cfg := service.Config{
		Store:              store,
		JournalDir:         *journalDir,
		QueueDepth:         *queueDepth,
		MaxRuns:            *maxRuns,
		Workers:            *workers,
		AllowOversubscribe: *oversubscribe,
		Logf:               log.Printf,
	}

	var reg *coord.Registry
	if *fleet {
		// One fleet, one campaign at a time: a worker runs a single job,
		// so concurrent fleet campaigns would just thrash dispatch
		// refusals (multi-job workers are ROADMAP work).
		if *maxRuns > 1 {
			log.Printf("WARNING: -fleet runs one campaign at a time (workers hold one job each); clamping -runs %d to 1", *maxRuns)
			cfg.MaxRuns = 1
		}
		reg = coord.NewRegistry(nil, log.Printf)
		cfg.Executor = service.NewFleetExecutor(reg, opts, *journalDir, log.Printf)
	}

	d, err := service.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	srv := obs.NewServer(d.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	mode := "local engine"
	if *fleet {
		mode = "worker fleet"
	}
	log.Printf("serving campaign API on %s (data %s, executor: %s)", ln.Addr(), *dataDir, mode)

	// A dedicated registration listener keeps worker traffic off the
	// client-facing port when the two live on different networks.
	var csrv *http.Server
	if *fleet && *coordListen != "" {
		cln, err := net.Listen("tcp", *coordListen)
		if err != nil {
			log.Fatal(err)
		}
		cmux := http.NewServeMux()
		reg.Routes(cmux)
		csrv = obs.NewServer(cmux)
		go func() {
			if err := csrv.Serve(cln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("coord-listen serve: %v", err)
			}
		}()
		log.Printf("serving worker registration on %s", cln.Addr())
	}

	d.Start()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	select {
	case <-ctx.Done():
		log.Printf("signal: draining (in-flight trials reach their journals; re-start to resume)")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
	}
	_ = srv.Close()
	if csrv != nil {
		_ = csrv.Close()
	}
	_ = d.Close()
	if n := d.Interrupted(); n > 0 {
		log.Printf("interrupted %d campaign(s) mid-run; journals are synced, re-start to finish", n)
		os.Exit(exitInterrupted)
	}
}
