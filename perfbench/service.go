package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/service"
)

// The service-mix workload drives an in-process lbfarmd — service.New
// over an FSStore, the default LocalExecutor, Daemon.Handler on a
// loopback httptest server — with one closed-loop client on one
// connection: per cycle one new campaign (POST → SSE until done → GET
// json and csv) and serviceHitsPerCycle cached re-submissions (POST →
// 200 cached → GET json).
const (
	serviceHitSpecs     = 8
	serviceHitsPerCycle = 10
	serviceSetups       = 5
	serviceSample       = 120
	serviceHitBase      = 1 << 22
)

// serviceSpec is campaign i of a run: 40 trials of 64 tasks on 4
// processors, two policies, no analyzers. A campaign's dozen fsyncs
// (journal, records, artifact set) and its goroutine hand-offs drift
// with the shared host's disk and scheduler far more than compute
// does, so the campaign carries enough compute (≈60 ms on two
// workers) to keep that fixed part near a sixth of it.
func serviceSpec(seed int64, i int) *campaign.Spec {
	return &campaign.Spec{
		Name:        "service-mix",
		Seeds:       20,
		SeedBase:    seed<<32 + int64(i)*20,
		Tasks:       []int{64},
		Utilization: []float64{2},
		Procs:       []int{4},
		Policies:    []string{"lexicographic", "ratio"},
	}
}

// tracedStore is the daemon's Store: the FSStore, with spans around
// the calls whose latency the per-layer table reports while on is set.
// The daemon calls it from its own goroutines, so spans find their
// operation through the campaign hash.
type tracedStore struct {
	*service.FSStore
	tr *tracer
	on atomic.Bool

	mu      sync.Mutex
	traceOf map[string]int
}

func (s *tracedStore) bind(hash string, trace int) {
	s.mu.Lock()
	s.traceOf[hash] = trace
	s.mu.Unlock()
}

func (s *tracedStore) span(name, hash string) int {
	if !s.on.Load() {
		return -1
	}
	s.mu.Lock()
	trace := s.traceOf[hash]
	s.mu.Unlock()
	return s.tr.begin(name, -1, trace)
}

func (s *tracedStore) done(id int) {
	if id >= 0 {
		s.tr.end(id)
	}
}

func (s *tracedStore) PutRecord(rec service.Record) error {
	id := s.span("service.FSStore.PutRecord", rec.ID)
	defer s.done(id)
	return s.FSStore.PutRecord(rec)
}

func (s *tracedStore) PutArtifacts(hash string, files map[string][]byte) error {
	id := s.span("service.FSStore.PutArtifacts", hash)
	defer s.done(id)
	return s.FSStore.PutArtifacts(hash, files)
}

func (s *tracedStore) GetArtifact(hash, kind string) ([]byte, error) {
	id := s.span("service.FSStore.GetArtifact", hash)
	defer s.done(id)
	return s.FSStore.GetArtifact(hash, kind)
}

// svc is one open daemon with its loopback server and client.
type svc struct {
	dir   string
	store *tracedStore
	d     *service.Daemon
	srv   *httptest.Server
	hc    *http.Client
}

func openService(dir string, tr *tracer) (*svc, error) {
	fs, err := service.OpenFSStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	store := &tracedStore{FSStore: fs, tr: tr, traceOf: map[string]int{}}
	d, err := service.New(service.Config{Store: store, JournalDir: filepath.Join(dir, "journals"), Workers: engineWorkers()})
	if err != nil {
		return nil, err
	}
	d.Start()
	return &svc{
		dir:   dir,
		store: store,
		d:     d,
		srv:   httptest.NewServer(d.Handler()),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}, nil
}

// close stops the client, the server and the daemon and removes the
// daemon's directory.
func (s *svc) close() {
	s.hc.CloseIdleConnections()
	s.srv.Close()
	s.d.Close()
	os.RemoveAll(s.dir)
}

// call runs one HTTP request under a span and returns the status, the
// body, and the round-trip time.
func (s *svc) call(tr *tracer, method, path, route string, body []byte, parent, trace int) (int, []byte, time.Duration, error) {
	id := tr.begin("api."+method+" "+route, parent, trace)
	defer tr.end(id)
	t0 := time.Now()
	req, err := http.NewRequest(method, s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, time.Since(t0), err
}

// submit POSTs a spec body and expects want (202 for a new campaign,
// 200 for a cache hit).
func (s *svc) submit(tr *tracer, body []byte, want, parent, trace int) (api.CampaignStatus, time.Duration, error) {
	var st api.CampaignStatus
	code, data, rtt, err := s.call(tr, http.MethodPost, "/v1/campaigns", "/v1/campaigns", body, parent, trace)
	if err != nil {
		return st, 0, err
	}
	if code != want {
		return st, 0, fmt.Errorf("POST /v1/campaigns: HTTP %d, want %d: %s", code, want, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, 0, err
	}
	if want == http.StatusOK && !st.Cached {
		return st, 0, fmt.Errorf("POST /v1/campaigns: 200 without cached")
	}
	return st, rtt, nil
}

// artifact GETs one artifact path, expecting 200.
func (s *svc) artifact(tr *tracer, path string, parent, trace int) ([]byte, error) {
	code, data, _, err := s.call(tr, http.MethodGet, path, "/v1/artifacts/{file}", nil, parent, trace)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, code)
	}
	return data, nil
}

// waitDone follows the campaign's SSE stream until a terminal status
// and requires it to be done. The stream ends with that event, so the
// connection goes back to the client's pool.
func (s *svc) waitDone(tr *tracer, id string, parent, trace int) (api.CampaignStatus, error) {
	span := tr.begin("api.GET /v1/campaigns/{id}/events", parent, trace)
	defer tr.end(span)
	resp, err := s.hc.Get(s.srv.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return api.CampaignStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.CampaignStatus{}, fmt.Errorf("GET events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return api.CampaignStatus{}, err
		}
		if ev.Type != api.EventStatus || ev.Status == nil || !ev.Status.State.Terminal() {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		if ev.Status.State != api.CampaignDone {
			return *ev.Status, fmt.Errorf("campaign %s ended %s: %s", id, ev.Status.State, ev.Status.Error)
		}
		return *ev.Status, nil
	}
	if err := sc.Err(); err != nil {
		return api.CampaignStatus{}, err
	}
	return api.CampaignStatus{}, fmt.Errorf("campaign %s: event stream ended before a terminal status", id)
}

// newCampaign is one new submission: POST (or, with inProcess, an
// in-process Daemon.Submit of the same body), follow the events until
// done, GET both artifacts and compare them with the direct engine
// run's bytes. It returns the time from submit to verified bytes.
func (s *svc) newCampaign(tr *tracer, body []byte, hash string, ref artifacts, inProcess bool) (time.Duration, error) {
	trace := tr.newTrace()
	if tr != nil {
		s.store.bind(hash, trace)
	}
	t0 := time.Now()
	root := tr.begin("service-mix.new", -1, trace)
	var st api.CampaignStatus
	var err error
	if inProcess {
		id := tr.begin("service.Daemon.Submit(new)", root, trace)
		st, err = s.d.Submit(bytes.NewReader(body))
		tr.end(id)
	} else {
		st, _, err = s.submit(tr, body, http.StatusAccepted, root, trace)
	}
	if err != nil {
		tr.end(root)
		return 0, err
	}
	if st.ID != hash {
		tr.end(root)
		return 0, fmt.Errorf("submit: campaign id %s, want the spec hash %s", st.ID, hash)
	}
	final, err := s.waitDone(tr, hash, root, trace)
	var got artifacts
	if err == nil {
		got.json, err = s.artifact(tr, final.Artifacts[service.KindJSON], root, trace)
	}
	if err == nil {
		got.csv, err = s.artifact(tr, final.Artifacts[service.KindCSV], root, trace)
	}
	if err == nil {
		err = sameBytes("service campaign", ref, got)
	}
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if tr != nil {
		id := tr.begin("service.Daemon.Status", -1, trace)
		st, ok := s.d.Status(hash)
		tr.end(id)
		if !ok || st.StartedAt == nil || st.FinishedAt == nil {
			return d, fmt.Errorf("status of %s lacks its timestamps", hash)
		}
		tr.count("service.queue_wait_ms", ms(st.StartedAt.Sub(st.SubmittedAt)))
		tr.count("service.exec_ms", ms(st.FinishedAt.Sub(*st.StartedAt)))
	}
	return d, nil
}

// hit is one cached re-submission: POST (200 cached) then GET the JSON
// artifact and compare it with the reference. Traced, it also submits
// the same body in-process to split the HTTP round trip from the
// daemon's own admission time.
func (s *svc) hit(tr *tracer, body []byte, hash string, ref artifacts) (time.Duration, error) {
	trace := tr.newTrace()
	if tr != nil {
		s.store.bind(hash, trace)
	}
	t0 := time.Now()
	root := tr.begin("service-mix.hit", -1, trace)
	st, rtt, err := s.submit(tr, body, http.StatusOK, root, trace)
	var got []byte
	if err == nil {
		got, err = s.artifact(tr, st.Artifacts[service.KindJSON], root, trace)
	}
	if err == nil {
		err = sameBytes("service cache hit", artifacts{json: ref.json}, artifacts{json: got})
	}
	tr.end(root)
	d := time.Since(t0)
	if err != nil || tr == nil {
		return d, err
	}
	id := tr.begin("service.Daemon.Submit(cached)", -1, trace)
	t1 := time.Now()
	st, err = s.d.Submit(bytes.NewReader(body))
	inProc := time.Since(t1)
	tr.end(id)
	if err != nil {
		return d, err
	}
	if !st.Cached {
		return d, fmt.Errorf("in-process re-submit of %s was not served from the cache", hash)
	}
	tr.count("api.http_rtt_ms", ms(rtt-inProc))
	return d, nil
}

// mixSpec is one prepared campaign: its submission body, identity, and
// the direct engine run's artifacts.
type mixSpec struct {
	body []byte
	hash string
	ref  artifacts
}

// prepare computes a spec's submission body, hash and reference bytes:
// a direct Engine.Run. Traced, the run is journaled (journalCampaign,
// which also checks its merged journal against the live run) so the
// journal layers have spans; untraced, it writes nothing, so the
// harness adds no fsyncs of its own to the disk the daemon syncs to.
func prepare(tr *tracer, dir string, spec *campaign.Spec) (mixSpec, error) {
	hash, err := spec.Hash()
	if err != nil {
		return mixSpec{}, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return mixSpec{}, err
	}
	var ref artifacts
	if tr != nil {
		out, err := journalCampaign(tr, filepath.Join(dir, "ref.jsonl"), spec)
		if err != nil {
			return mixSpec{}, fmt.Errorf("reference run: %w", err)
		}
		ref = out.live
	} else {
		res, err := (&campaign.Engine{Workers: engineWorkers()}).Run(spec)
		if err == nil {
			ref, err = render(nil, res, -1, 0)
		}
		if err != nil {
			return mixSpec{}, fmt.Errorf("reference run: %w", err)
		}
	}
	return mixSpec{body: body, hash: hash, ref: ref}, nil
}

// openPrimed opens a daemon and completes the campaigns the hit phase
// re-submits — the service-mix set-up.
func openPrimed(dir string, tr *tracer, hits []mixSpec) (*svc, error) {
	s, err := openService(dir, tr)
	if err != nil {
		return nil, err
	}
	for _, h := range hits {
		if _, err := s.newCampaign(nil, h.body, h.hash, h.ref, false); err != nil {
			s.close()
			return nil, fmt.Errorf("priming the cache: %w", err)
		}
	}
	return s, nil
}

// mixTimes are the latencies (ms) a mix loop measured: new campaigns
// and hits of the untraced cycles, hits of the traced ones, and every
// untraced operation in order with the trials it executed.
type mixTimes struct {
	newMS, hitMS, tracedHitMS []float64
	opMS, opTrials            []float64
}

// mixLoop runs cycles until budget (or maxCycles, when positive): a
// new campaign then serviceHitsPerCycle hits. With a tracer, every
// cycle of a bounded loop and every other cycle of a timed one records
// spans, and traced cycles alternate new submissions between HTTP and
// in-process.
func mixLoop(s *svc, tr *tracer, scratch string, seed int64, hits []mixSpec, budget time.Duration, maxCycles int, rep *report) (mixTimes, error) {
	var out mixTimes
	start := time.Now()
	for i := 0; time.Since(start) < budget && (maxCycles == 0 || i < maxCycles); i++ {
		var ctr *tracer
		if tr != nil && (maxCycles > 0 || i%2 == 1) {
			ctr = tr
		}
		spec := serviceSpec(seed, i)
		ms0, err := prepare(ctr, scratch, spec)
		if err != nil {
			return out, err
		}
		// The reference run's garbage is the harness's, not the
		// service's: collect it before the timed cycle.
		runtime.GC()
		s.store.on.Store(ctr != nil)
		d, err := s.newCampaign(ctr, ms0.body, ms0.hash, ms0.ref, ctr != nil && (i/2)%2 == 1)
		rep.attempted++
		if err != nil {
			fmt.Printf("check failed: new campaign %d: %v\n", i, err)
			rep.failed++
		} else if ctr == nil {
			out.newMS = append(out.newMS, ms(d))
			out.opMS = append(out.opMS, ms(d))
			out.opTrials = append(out.opTrials, 40)
		}
		for k := 0; k < serviceHitsPerCycle; k++ {
			h := hits[(i*serviceHitsPerCycle+k)%len(hits)]
			d, err := s.hit(ctr, h.body, h.hash, h.ref)
			rep.attempted++
			switch {
			case err != nil:
				fmt.Printf("check failed: hit: %v\n", err)
				rep.failed++
			case ctr != nil:
				out.tracedHitMS = append(out.tracedHitMS, ms(d))
			default:
				out.hitMS = append(out.hitMS, ms(d))
				out.opMS = append(out.opMS, ms(d))
				out.opTrials = append(out.opTrials, 0)
			}
		}
		s.store.on.Store(false)
	}
	return out, nil
}

// hitSpecs prepares the campaigns the hit phase re-submits.
func hitSpecs(scratch string, seed int64, n int) ([]mixSpec, error) {
	hits := make([]mixSpec, n)
	for k := range hits {
		var err error
		if hits[k], err = prepare(nil, scratch, serviceSpec(seed, serviceHitBase+k)); err != nil {
			return nil, err
		}
	}
	return hits, nil
}

func runServiceMix(cfg runConfig) (*report, error) {
	scratch := filepath.Join(cfg.dir, "refs")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	hits, err := hitSpecs(scratch, cfg.seed, serviceHitSpecs)
	if err != nil {
		return nil, err
	}
	n := 0
	s, setups, err := repeatSetup(serviceSetups, func() (*svc, error) {
		n++
		return openPrimed(filepath.Join(cfg.dir, fmt.Sprintf("daemon%d", n)), cfg.tr, hits)
	}, (*svc).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep := &report{setups: setups, attempted: int64(serviceSetups * len(hits))}

	budget := cfg.seconds
	if cfg.tr != nil {
		budget /= 2
	}
	t, err := mixLoop(s, cfg.tr, scratch, cfg.seed, hits, budget, 0, rep)
	if err != nil {
		return nil, err
	}
	fmt.Printf("service-mix: %d new campaigns, %d hits (untraced)\n", len(t.newMS), len(t.hitMS))
	fmt.Printf("service-mix: new campaign ms p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f\n",
		pct(t.newMS, 0.1), pct(t.newMS, 0.25), pct(t.newMS, 0.5), pct(t.newMS, 0.75), pct(t.newMS, 0.9))
	if cfg.tr != nil {
		rep.overheadPct = 100 * (median(t.tracedHitMS)/median(t.hitMS) - 1)
		var trials []campaign.Trial
		for i := 0; i < 10; i++ {
			ts, err := serviceSpec(cfg.seed, i).Trials()
			if err != nil {
				return nil, err
			}
			trials = append(trials, ts...)
		}
		kit, err := newTrialKit(serviceSpec(cfg.seed, 0))
		if err != nil {
			return nil, err
		}
		sample := sampleTrials(trials, serviceSample, cfg.seed)
		_, _, bad, err := traceTrials(cfg.tr, sample, kit, nil)
		if err != nil {
			return nil, err
		}
		rep.attempted += int64(len(sample))
		rep.failed += int64(bad)
		return rep, nil
	}
	rep.e2e = map[string]float64{
		"trials_per_s":    chunkRate(t.opTrials, t.opMS, rateChunkMS),
		"campaign_p50_ms": median(t.newMS),
		"campaign_p90_ms": pct(t.newMS, 0.9),
		"hit_p50_ms":      median(t.hitMS),
	}
	return rep, nil
}

// serviceProbe measures the service layers on the traced runs of the
// workloads that do not cross them: a fresh daemon, two cached
// campaigns, and four traced cycles, recorded on their own tracer
// (rep.probe) so they never mix with the workload's spans.
func serviceProbe(cfg runConfig, rep *report) error {
	rep.probe = newTracer()
	dir := filepath.Join(cfg.dir, "probe")
	scratch := filepath.Join(dir, "refs")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	hits, err := hitSpecs(scratch, cfg.seed, 2)
	if err != nil {
		return err
	}
	s, err := openPrimed(filepath.Join(dir, "daemon"), rep.probe, hits)
	if err != nil {
		return err
	}
	defer s.close()
	_, err = mixLoop(s, rep.probe, scratch, cfg.seed, hits, time.Hour, 4, rep)
	return err
}
