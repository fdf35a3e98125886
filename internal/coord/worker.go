package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Hooks are the worker's fault-injection points, wired only by the
// chaos tests; the zero value is a production worker.
type Hooks struct {
	// SinkDelay, when non-nil, runs inside the engine sink after each
	// journal append — the latency knob that manufactures stragglers.
	SinkDelay func(r campaign.TrialResult)
	// KillAfter > 0 simulates a process death after that many journaled
	// trials: the job halts where it stands (partial journal and all)
	// and every subsequent HTTP request is refused, exactly what a
	// SIGKILLed worker looks like from the coordinator.
	KillAfter int
}

// WorkerConfig parameterises a WorkerServer.
type WorkerConfig struct {
	// ID is the worker's registration identity (default: host:pid).
	ID string
	// Dir is where the worker keeps its shard journals (one per job ID).
	Dir string
	// Workers is the engine pool size (≤ 0 = GOMAXPROCS).
	Workers int
	// Obs, when non-nil, is the telemetry set the engine records into.
	// Every status reply carries its snapshot, which is how the
	// coordinator sees the worker's telemetry; /debug/vars and /metrics
	// serve it to operators.
	Obs *obs.Set
	// Logf receives the worker's event log (nil = silent).
	Logf func(format string, args ...any)
	// Hooks inject faults for the chaos tests.
	Hooks Hooks
}

// workerJob is the worker's current assignment and its run state.
type workerJob struct {
	job     Job
	state   JobState
	err     string
	path    string
	started time.Time
	done    atomic.Int64 // journaled trials (replayed rows included)
	total   int
	stop    chan struct{} // closed (via halt) to drain the engine
	halt1   sync.Once     // cancel and the kill hook may race to close it
	fin     chan struct{} // closed when the run goroutine exits
}

// halt closes the drain channel exactly once.
func (j *workerJob) halt() { j.halt1.Do(func() { close(j.stop) }) }

// WorkerServer executes one Job at a time: resume-or-create the job's
// shard journal, run the engine over the job's range, and hold the
// complete journal for collection. It implements the Worker interface
// in-process and serves it over HTTP via Handler — Start/Status/Cancel/
// Journal are the same code either way, which is what lets the chaos
// tests drive the real server through real HTTP.
type WorkerServer struct {
	cfg WorkerConfig

	mu     sync.Mutex
	cur    *workerJob
	killed atomic.Bool
}

// NewWorkerServer validates the config and prepares the journal dir.
func NewWorkerServer(cfg WorkerConfig) (*WorkerServer, error) {
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("coord: worker needs a journal directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &WorkerServer{cfg: cfg}, nil
}

// ID implements Worker.
func (s *WorkerServer) ID() string { return s.cfg.ID }

// Start implements Worker: launch the job asynchronously. Re-starting
// the job the worker already runs (or holds done) is idempotent — the
// coordinator's speculative re-issue and retry paths depend on that.
// Starting a different job while one runs is refused.
func (s *WorkerServer) Start(_ context.Context, job Job) error {
	if s.dead() {
		return errors.New("coord: worker is down")
	}
	if job.Spec == nil {
		return errors.New("coord: job carries no spec")
	}
	// Own the spec outright: runJob normalises it in place, and an
	// in-process caller (the chaos tests, a future embedded mode) would
	// otherwise share slices with the coordinator's copy.
	data, err := json.Marshal(job.Spec)
	if err != nil {
		return err
	}
	sc := &campaign.Spec{}
	if err := json.Unmarshal(data, sc); err != nil {
		return err
	}
	job.Spec = sc
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil {
		switch {
		case s.cur.job.ID == job.ID && (s.cur.state == JobRunning || s.cur.state == JobDone):
			return nil
		case s.cur.state == JobRunning:
			return fmt.Errorf("coord: busy with job %s", s.cur.job.ID)
		}
	}
	j := &workerJob{
		job:     job,
		state:   JobRunning,
		started: time.Now(),
		total:   job.Range.Hi - job.Range.Lo,
		path:    filepath.Join(s.cfg.Dir, job.ID+".jsonl"),
		stop:    make(chan struct{}),
		fin:     make(chan struct{}),
	}
	s.cur = j
	s.cfg.Logf("job %s: shard %d/%d [%d,%d)", job.ID, job.Range.Index+1, job.Range.Count, job.Range.Lo, job.Range.Hi)
	go s.execute(j)
	return nil
}

// execute runs one job to completion (or drain, or injected death).
func (s *WorkerServer) execute(j *workerJob) {
	defer close(j.fin)
	err := s.runJob(j)
	s.mu.Lock()
	switch {
	case err == nil:
		j.state = JobDone
		s.cfg.Logf("job %s: done (%d trials journaled)", j.job.ID, j.done.Load())
	case errors.Is(err, campaign.ErrInterrupted):
		j.state = JobFailed
		j.err = "canceled"
		s.cfg.Logf("job %s: drained after %d trials", j.job.ID, j.done.Load())
	default:
		j.state = JobFailed
		j.err = err.Error()
		s.cfg.Logf("job %s: failed: %v", j.job.ID, err)
	}
	s.mu.Unlock()
	// A dead worker writes nothing — that is what the injected SIGKILL
	// simulates; every other outcome leaves a sidecar for post-mortems.
	if !s.dead() {
		s.writeRunInfo(j)
	}
}

// writeRunInfo drops the per-job runinfo sidecar next to the job's
// shard journal: identity (job, trace, span — the coordinator's
// range-lifecycle IDs), scale, host facts, and the worker's telemetry
// snapshot. Sidecar failures are log-only; the journal is the artifact
// that matters.
func (s *WorkerServer) writeRunInfo(j *workerJob) {
	ri := obs.NewRunInfo("lbfarm-worker")
	if j.job.Spec != nil {
		ri.Name = j.job.Spec.Name
		if hash, err := j.job.Spec.Hash(); err == nil {
			ri.SpecHash = hash
		}
	}
	ri.Shard = fmt.Sprintf("%d/%d", j.job.Range.Index+1, j.job.Range.Count)
	ri.Job, ri.Trace, ri.Span = j.job.ID, j.job.Trace, j.job.Span
	ri.Trials = int(j.done.Load())
	ri.Workers = s.cfg.Workers
	ri.Obs = s.cfg.Obs.Snapshot()
	ri.Finish(time.Since(j.started))
	path := strings.TrimSuffix(j.path, filepath.Ext(j.path)) + obs.RunInfoSuffix
	if err := ri.Write(path); err != nil {
		s.cfg.Logf("job %s: writing runinfo sidecar: %v", j.job.ID, err)
	}
}

// runJob resumes the job's journal if a previous attempt left one
// (byte-identity survives re-dispatch), creates it otherwise, and runs
// the engine as the journal's run over the job's range, with the drain
// channel attached.
func (s *WorkerServer) runJob(j *workerJob) error {
	spec := j.job.Spec
	if err := spec.Normalize(); err != nil {
		return err
	}
	hdr, err := journal.NewHeader(spec, j.job.Range.Index, j.job.Range.Count)
	if err != nil {
		return err
	}
	if hdr.Lo != j.job.Range.Lo || hdr.Hi != j.job.Range.Hi {
		return fmt.Errorf("coord: job range [%d,%d) disagrees with shard %d/%d of the spec ([%d,%d))",
			j.job.Range.Lo, j.job.Range.Hi, j.job.Range.Index+1, j.job.Range.Count, hdr.Lo, hdr.Hi)
	}

	// Resume starts a fresh journal when none survives on disk.
	w, done, err := journal.Resume(j.path, hdr, s.cfg.Obs.Aux())
	if err != nil {
		return err
	}
	if len(done) > 0 {
		s.cfg.Logf("job %s: resuming journal, %d of %d trials already done", j.job.ID, len(done), j.total)
	}
	j.done.Store(int64(len(done)))

	kill := s.cfg.Hooks.KillAfter
	eng := &campaign.Engine{
		Workers: s.cfg.Workers,
		Obs:     s.cfg.Obs,
		Stop:    j.stop,
		Sink: func(r campaign.TrialResult) error {
			if s.cfg.Hooks.SinkDelay != nil {
				s.cfg.Hooks.SinkDelay(r)
			}
			if n := j.done.Add(1); kill > 0 && n >= int64(kill) && !s.killed.Swap(true) {
				// Simulated death: stop the engine where it stands and go
				// dark. Nothing reads a dead worker's journal — the
				// coordinator re-dispatches its range.
				j.halt()
				s.cfg.Logf("job %s: injected kill after %d trials", j.job.ID, n)
			}
			return nil
		},
	}
	_, err = w.Run(eng, spec)
	if s.killed.Load() {
		return errors.New("coord: worker killed by fault injection")
	}
	return err
}

// Status implements Worker. jobID "" reports whatever the worker is
// doing; naming a job the worker does not hold returns ErrUnknownJob.
// The reply carries the telemetry snapshot, taken after the job state
// was read: a JobDone reply's snapshot covers every trial of its job.
func (s *WorkerServer) Status(_ context.Context, jobID string) (WorkerStatus, error) {
	st, err := s.status(jobID)
	if err == nil {
		st.Obs = s.cfg.Obs.Snapshot()
	}
	return st, err
}

// status is the job part of a Status reply, without the telemetry.
func (s *WorkerServer) status(jobID string) (WorkerStatus, error) {
	if s.dead() {
		return WorkerStatus{}, errors.New("coord: worker is down")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil || (jobID != "" && s.cur.job.ID != jobID) {
		if jobID == "" {
			return WorkerStatus{State: JobIdle}, nil
		}
		return WorkerStatus{}, ErrUnknownJob
	}
	j := s.cur
	return WorkerStatus{
		JobID: j.job.ID,
		State: j.state,
		Done:  int(j.done.Load()),
		Total: j.total,
		Err:   j.err,
	}, nil
}

// Cancel implements Worker: drain the named job. The engine stops
// claiming trials, in-flight trials reach the journal, and the journal
// is synced closed — best-effort and idempotent.
func (s *WorkerServer) Cancel(_ context.Context, jobID string) error {
	if s.dead() {
		return errors.New("coord: worker is down")
	}
	s.mu.Lock()
	j := s.cur
	if j == nil || (jobID != "" && j.job.ID != jobID) || j.state != JobRunning {
		s.mu.Unlock()
		return nil
	}
	j.halt()
	s.mu.Unlock()
	<-j.fin
	return nil
}

// Journal implements Worker: the complete journal bytes of a done job.
func (s *WorkerServer) Journal(_ context.Context, jobID string) ([]byte, error) {
	if s.dead() {
		return nil, errors.New("coord: worker is down")
	}
	s.mu.Lock()
	j := s.cur
	s.mu.Unlock()
	if j == nil || j.job.ID != jobID {
		return nil, ErrUnknownJob
	}
	if j.state != JobDone {
		return nil, fmt.Errorf("coord: job %s is %s, not done", jobID, j.state)
	}
	return os.ReadFile(j.path)
}

// Drain cancels any running job and waits for it to settle — the
// SIGTERM path of the worker serve mode.
func (s *WorkerServer) Drain() { _ = s.Cancel(context.Background(), "") }

// dead reports whether fault injection took this worker down.
func (s *WorkerServer) dead() bool { return s.killed.Load() }

// Handler serves the worker API in the shared wire dialect
// (internal/api — JSON bodies, the {"error":{code,message}} envelope on
// every failure):
//
//	POST /v1/job/start        body: api.Job; 409 conflict when busy
//	                          with a different job
//	GET  /v1/job/status?id=J  200: api.WorkerStatus, telemetry snapshot
//	                          included; 404 not_found envelope for a job
//	                          this worker does not hold (the
//	                          amnesiac-worker signal)
//	POST /v1/job/cancel?id=J  204 always (cancel is idempotent)
//	GET  /v1/job/journal?id=J 200: raw journal bytes; 404 not_found,
//	                          409 conflict while the job still runs
//	GET  /debug/vars          {"obs": <snapshot>, "worker": {...}} for
//	                          operators; the worker block echoes the
//	                          current job's trace/span IDs
//	                          (obs.RegisterDebug).
//	GET  /metrics             Prometheus text exposition of the local
//	                          snapshot (lb_ prefix), for operators.
//
// The coordinator reads only the /v1/job routes: the status poll is its
// one channel to the worker, telemetry included. A worker taken down by
// fault injection answers everything — debug surface included — with a
// 503 unavailable envelope, indistinguishable from a dead process to the
// coordinator.
func (s *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/job/start", func(w http.ResponseWriter, r *http.Request) {
		var job Job
		if err := api.Decode(r.Body, &job); err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding job: %v", err)
			return
		}
		if err := s.Start(r.Context(), job); err != nil {
			api.WriteError(w, http.StatusConflict, api.CodeConflict, "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/job/status", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.Context(), r.URL.Query().Get("id"))
		if errors.Is(err, ErrUnknownJob) {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "%v", err)
			return
		}
		api.WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/job/cancel", func(w http.ResponseWriter, r *http.Request) {
		_ = s.Cancel(r.Context(), r.URL.Query().Get("id"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/job/journal", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.Journal(r.Context(), r.URL.Query().Get("id"))
		if err != nil {
			if errors.Is(err, ErrUnknownJob) {
				api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "%v", err)
			} else {
				api.WriteError(w, http.StatusConflict, api.CodeConflict, "%v", err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})
	obs.RegisterDebug(mux, obs.SnapshotMetrics("lb_", s.cfg.Obs.Snapshot), map[string]func() any{
		"obs": func() any { return s.cfg.Obs.Snapshot() },
		"worker": func() any {
			st, _ := s.status("")
			wv := map[string]any{"id": s.cfg.ID, "status": st}
			s.mu.Lock()
			if j := s.cur; j != nil {
				wv["trace"] = j.job.Trace
				wv["span"] = j.job.Span
			}
			s.mu.Unlock()
			return wv
		},
	})
	// The dead-guard wraps the whole mux so the simulated SIGKILL also
	// blacks out the debug surface, not just the job routes.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.dead() {
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "worker is down")
			return
		}
		mux.ServeHTTP(w, r)
	})
}
