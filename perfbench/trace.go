package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// benchmark operation (a sweep, a campaign, a cache hit, a trial) share
// Trace; Parent is the enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans and per-boundary counts in memory until the run
// ends. A nil *tracer records nothing, so the untraced end-to-end runs
// pay one nil check per boundary. Safe for concurrent use: journal
// appends arrive from every engine worker and store calls from the
// daemon's goroutines.
type tracer struct {
	base time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string][]float64
	traces int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), counts: map[string][]float64{}}
}

// newTrace returns a fresh operation identifier (0 on a nil tracer).
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration in milliseconds (0 on
// a nil tracer).
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return float64(now-t.spans[id].Start) / 1e6
}

// count records one observation of a per-boundary quantity (a ratio
// numerator, a size, an allocation delta).
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// durations returns the closed spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// samples returns the counts recorded under name.
func (t *tracer) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.counts[name])
}

// write dumps every span, with its self time (duration minus the union
// of its children's intervals), as JSON lines after a header line
// carrying the host facts.
func (t *tracer) write(path string, header any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		t.spans[i].Self = selfTime(t.spans, i, children[i])
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is span i's duration minus the part of it covered by the
// union of its children (children may overlap: journal appends run on
// every engine worker at once).
func selfTime(spans []span, i int, kids []int) int64 {
	s := spans[i]
	if s.End < 0 {
		return 0
	}
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		if c := spans[k]; c.End >= 0 {
			ivs = append(ivs, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	covered, reach := int64(0), s.Start
	for _, iv := range ivs {
		lo := max(iv[0], reach)
		if iv[1] > lo {
			covered += iv[1] - lo
			reach = iv[1]
		}
	}
	return s.End - s.Start - covered
}

// pct is the nearest-rank q-quantile of xs (q in (0,1]).
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerMetric derives one per-layer metric from the tracer.
type layerMetric struct {
	name, unit string
	value      func(t *tracer) float64
}

func p50Of(span string) func(*tracer) float64 {
	return func(t *tracer) float64 { return median(t.durations(span)) }
}

func p90Of(span string) func(*tracer) float64 {
	return func(t *tracer) float64 { return pct(t.durations(span), 0.9) }
}

func meanCount(name string) func(*tracer) float64 {
	return func(t *tracer) float64 { return mean(t.samples(name)) }
}

func p50Count(name string) func(*tracer) float64 {
	return func(t *tracer) float64 { return median(t.samples(name)) }
}

// layerMetrics is the per-layer table every traced run reports, in the
// order BENCHMARK.json lists it. host.calib_ms and
// bench.trace_overhead_pct are added by the run itself.
var layerMetrics = []layerMetric{
	{"gen.generate_ms", "ms", p50Of("gen.Generate")},
	{"sched.schedule_ms", "ms", p50Of("sched.Scheduler.Run")},
	{"sched.schedule_p90_ms", "ms", p90Of("sched.Scheduler.Run")},
	{"sched.accept_ratio", "ratio", meanCount("sched.accepted")},
	{"blocks.build_ms", "ms", p50Of("blocks.Build")},
	{"blocks.per_trial", "count", meanCount("blocks.count")},
	{"core.balance_ms", "ms", p50Of("core.Balancer.Run")},
	{"core.balance_p90_ms", "ms", p90Of("core.Balancer.Run")},
	{"core.rerun_ratio", "ratio", meanCount("core.rerun")},
	{"core.forced_per_trial", "count", meanCount("core.forced")},
	{"core.moves_per_trial", "count", meanCount("core.moves")},
	{"sim.simulate_ms", "ms", p50Of("sim.Runner.Run")},
	{"sim.reuse_ms", "ms", p50Of("sim.MinMemoryWithReuse")},
	{"analyzers.run_ms", "ms", p50Count("analyzers.trial_ms")},
	{"campaign.trial_ms", "ms", p50Of("campaign.RunTrial")},
	{"campaign.allocs_per_trial", "count", meanCount("campaign.allocs")},
	{"campaign.alloc_kb_per_trial", "KiB", meanCount("campaign.alloc_kb")},
	{"journal.append_us", "us", func(t *tracer) float64 { return 1000 * median(t.durations("journal.Writer.Append")) }},
	{"journal.append_p90_us", "us", func(t *tracer) float64 { return 1000 * pct(t.durations("journal.Writer.Append"), 0.9) }},
	{"journal.sync_ms", "ms", p50Of("journal.Writer.Close")},
	{"journal.bytes_per_trial", "B", meanCount("journal.bytes_per_trial")},
	{"journal.merge_ms", "ms", p50Of("journal.Merge")},
	{"journal.decode_mb_per_s", "MB/s", func(t *tracer) float64 {
		return sum(t.samples("journal.merged_bytes")) / 1e6 / (sum(t.durations("journal.Merge")) / 1e3)
	}},
	{"campaign.fold_ms", "ms", p50Of("campaign.Fold")},
	{"campaign.render_ms", "ms", p50Of("campaign.render")},
	{"service.submit_ms", "ms", p50Of("service.Daemon.Submit(new)")},
	{"service.queue_wait_ms", "ms", p50Count("service.queue_wait_ms")},
	{"service.exec_ms", "ms", p50Count("service.exec_ms")},
	{"service.store_put_ms", "ms", p50Of("service.FSStore.PutArtifacts")},
	{"service.hit_submit_ms", "ms", p50Of("service.Daemon.Submit(cached)")},
	{"service.artifact_get_ms", "ms", p50Of("service.FSStore.GetArtifact")},
	{"api.http_rtt_ms", "ms", p50Count("api.http_rtt_ms")},
}

// layerValues evaluates the table on the workload's spans, falling
// back to the probe's (nil when no probe ran) for the layers the
// workload does not cross. A layer with no samples in either is an
// error: every traced run must report every layer.
func layerValues(t, probe *tracer) (map[string]metric, error) {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		v := m.value(t)
		if bad(v) && probe != nil {
			v = m.value(probe)
			fmt.Printf("  %s measured on the service probe\n", m.name)
		}
		if bad(v) {
			return nil, fmt.Errorf("per-layer metric %s has no samples in this traced run", m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out, nil
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// rateChunkMS is the busy time one trials_per_s chunk covers.
const rateChunkMS = 2000

// chunkRate is a throughput that a short host stall cannot swing:
// operations, in the order they ran, are grouped into chunks of at
// least chunkMS busy milliseconds, and the median over chunks of
// trials per busy second is returned. A run too short to fill one
// chunk is measured as a single chunk.
func chunkRate(trials, busyMS []float64, chunkMS float64) float64 {
	var rates []float64
	n, busy := 0.0, 0.0
	for i := range busyMS {
		n += trials[i]
		busy += busyMS[i]
		if busy >= chunkMS {
			rates = append(rates, n/(busy/1e3))
			n, busy = 0, 0
		}
	}
	if len(rates) == 0 {
		return n / (busy / 1e3)
	}
	return median(rates)
}
