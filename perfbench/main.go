// Command perfbench is the repository's benchmark: it drives one of
// three workloads in-process for a fixed time, checks every output byte
// it produces, and prints one JSON result line. README.md in this
// directory describes the workloads, the metrics and the noise rules;
// run.sh builds and runs it from a checkout's root:
//
//	bash perfbench/run.sh --workload paper-phase --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it records spans around the public calls it makes,
// reports the per-layer metrics, and writes the spans to
// .bench_build/spans/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workDir is where a run keeps its scratch (journals, the service
// store) and its span dumps, relative to the checkout root.
const workDir = ".bench_build"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in untraced runs
	dir     string  // private scratch directory, removed after the run
}

// report is what a workload hands back: operation counts, its set-up
// times, and its end-to-end figures (trials_per_s, campaign_p50_ms,
// campaign_p90_ms, hit_p50_ms). In traced runs overheadPct is the
// traced-vs-untraced cost of the workload's operations.
type report struct {
	attempted, failed int64
	setups            []float64 // seconds, one per repetition
	e2e               map[string]float64
	overheadPct       float64
	probe             *tracer // traced runs: spans of the service probe, if one ran
}

// hostFacts are recorded in every run.
type hostFacts struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
}

var workloads = map[string]func(runConfig) (*report, error){
	"paper-phase":  runPaperPhase,
	"journal-fold": runJournalFold,
	"service-mix":  runServiceMix,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "paper-phase | journal-fold | service-mix")
	seed := flag.Int64("seed", 1, "workload seed: the journal-fold and service-mix campaigns, paper-phase's held-out and traced trials")
	seconds := flag.Int("seconds", 24, "measurement time")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}

	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	host := hostFacts{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: gogc, Workload: *name, Seed: *seed, Trace: *traced == 1}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-*")
	if err != nil {
		return err
	}
	// Flushing the removal keeps this run's deletions out of the next
	// run's fsyncs.
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}
	if *traced == 1 {
		cfg.tr = newTracer()
	}
	calibStart := calibrate()
	rep, err := fn(cfg)
	if err != nil {
		return err
	}
	calibEnd := calibrate()
	fmt.Printf("host.calib_ms start %.3f end %.3f\n", calibStart, calibEnd)

	metrics := map[string]metric{}
	if cfg.tr == nil {
		for _, m := range []struct{ name, unit string }{
			{"trials_per_s", "1/s"}, {"campaign_p50_ms", "ms"}, {"campaign_p90_ms", "ms"}, {"hit_p50_ms", "ms"},
		} {
			v, ok := rep.e2e[m.name]
			if !ok || bad(v) {
				return fmt.Errorf("workload measured no %s", m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
		metrics["setup_s"] = metric{median(rep.setups), "s"}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		metrics["rss_peak_mb"] = metric{rss, "MB"}
	} else {
		if metrics, err = layerValues(cfg.tr, rep.probe); err != nil {
			return err
		}
		metrics["host.calib_ms"] = metric{(calibStart + calibEnd) / 2, "ms"}
		metrics["bench.trace_overhead_pct"] = metric{rep.overheadPct, "%"}
		spans := filepath.Join(workDir, "spans")
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spans, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := cfg.tr.write(path, host); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
		if rep.probe != nil {
			path = strings.TrimSuffix(path, ".jsonl") + ".probe.jsonl"
			if err := rep.probe.write(path, host); err != nil {
				return err
			}
			fmt.Printf("service probe spans written to %s\n", path)
		}
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("  %-30s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	out, err := json.Marshal(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// calibrate times a fixed amount of pure ALU work (a xorshift chain the
// compiler cannot fold away). It does not touch the program, so when it
// moves between runs the host moved, not the code.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := ms(time.Since(t0))
	if x == 0 { // never true; keeps the loop live
		fmt.Println(x)
	}
	return d
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// engineWorkers is the engine pool size: GOMAXPROCS, but never more
// CPU-bound workers than cores.
func engineWorkers() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
