package coord

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Run drives the campaign to completion: each Poll tick it polls worker
// status, re-queues the leases of dead or job-less workers, fetches and
// validates completed shard journals, dispatches pending ranges to idle
// workers, and speculatively re-issues stragglers. It returns the merged
// result — byte-identical to an uninterrupted single-host run — or the
// first fatal error (a range out of attempts, or ctx canceled).
//
// Run may be called with zero workers registered; it waits for
// registrations (typically forwarded by an attached Registry) and adapts
// as the pool grows and shrinks.
func (c *Coordinator) Run(ctx context.Context) (*campaign.Result, error) {
	tick := time.NewTicker(c.cfg.Poll)
	defer tick.Stop()
	for {
		c.step(ctx)

		c.mu.Lock()
		fatal := c.fatal
		done := true
		for _, l := range c.leases {
			if l.state != StateJournaled {
				done = false
				break
			}
		}
		c.mu.Unlock()

		if fatal != nil {
			c.drain()
			return nil, fatal
		}
		if done {
			return c.merge()
		}
		select {
		case <-ctx.Done():
			c.drain()
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

// drain best-effort cancels every running job so workers stop burning
// cycles on a campaign that is over. The parent ctx is typically already
// dead here, so each cancel gets its own deadline.
func (c *Coordinator) drain() {
	var ts []cancelTarget
	c.mu.Lock()
	for _, l := range c.leases {
		if l.state != StateLeased {
			continue
		}
		for id, jobID := range l.workers {
			if ws, ok := c.workers[id]; ok {
				ts = append(ts, cancelTarget{ws.w, jobID})
			}
		}
	}
	c.mu.Unlock()
	c.cancel(context.Background(), ts)
}

// cancelTarget is one job to cancel on one worker.
type cancelTarget struct {
	w   Worker
	job string
}

// cancel best-effort cancels each target (outside the lock), each call
// under its own RPC deadline.
func (c *Coordinator) cancel(ctx context.Context, ts []cancelTarget) {
	for _, t := range ts {
		cctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
		_ = t.w.Cancel(cctx, t.job)
		cancel()
	}
}

// merge folds the journaled shards into the final result and marks the
// leases merged.
func (c *Coordinator) merge() (*campaign.Result, error) {
	paths := make([]string, len(c.leases))
	for i, l := range c.leases {
		paths[i] = l.path
	}
	res, err := journal.Merge(paths)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for _, l := range c.leases {
		l.state = StateMerged
	}
	c.event(Event{Type: EvMerged, Detail: fmt.Sprintf("%d shards, %d trials", len(paths), len(res.Trials))})
	c.mu.Unlock()
	c.cfg.Logf("merged %d shards: %d trials", len(paths), len(res.Trials))
	return res, nil
}

// step is one scheduler tick. RPCs run outside the lock; every lease
// transition happens under it, on this goroutine only — registrations
// merely add workers, so there is no second writer to race. round is
// when the tick's poll began: a worker seen since then answered it (or
// joined during the tick).
func (c *Coordinator) step(ctx context.Context) {
	round := time.Now()
	c.poll(ctx)
	fetches := c.transition(round)
	c.collect(ctx, fetches)
	for _, s := range c.assign(round) {
		c.dispatch(ctx, s)
	}
	for _, s := range c.speculate(round) {
		c.dispatch(ctx, s)
	}
}

// poll asks every worker with a lease for job status — the
// coordinator's one view of a worker: its liveness, its job's state, the
// progress the straggler rules read, and its telemetry snapshot. Idle
// workers are probed too so a dead idle worker is dropped from the pool
// rather than assigned work forever.
func (c *Coordinator) poll(ctx context.Context) {
	type probe struct {
		id    string
		w     Worker
		jobID string
	}
	var ps []probe
	c.mu.Lock()
	for id, ws := range c.workers {
		jobID := ""
		if ws.lease >= 0 {
			jobID = c.leases[ws.lease].workers[id]
		}
		ps = append(ps, probe{id, ws.w, jobID})
	}
	c.mu.Unlock()

	for _, p := range ps {
		cctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
		st, err := p.w.Status(cctx, p.jobID)
		cancel()

		c.mu.Lock()
		ws, ok := c.workers[p.id]
		if !ok {
			c.mu.Unlock()
			continue
		}
		switch {
		case err == nil:
			now := time.Now()
			if st.JobID != ws.status.JobID || st.Done > ws.status.Done {
				ws.progressAt = now
			}
			ws.lastSeen = now
			ws.status = st
			if st.Obs != nil {
				ws.snap = st.Obs
			}
		case errors.Is(err, ErrUnknownJob):
			// Alive but amnesiac: it restarted and lost the assignment.
			ws.lastSeen = time.Now()
			ws.status = WorkerStatus{}
			if ws.lease >= 0 {
				ev := c.rangeEvent(EvAmnesia, c.leases[ws.lease])
				ev.Worker = p.id
				ev.Detail = "worker restarted and lost the job"
				c.event(ev)
				c.cfg.Logf("worker %s lost job %s — re-queueing range %d", p.id, p.jobID, ws.lease)
				c.detach(ws.lease, p.id, "worker lost the job")
			}
		default:
			// RPC failure: say nothing, let the liveness timeout decide.
		}
		c.mu.Unlock()
	}
}

// fetchOrder names one done job whose journal should be collected.
type fetchOrder struct {
	leaseIdx int
	id       string
	w        Worker
	jobID    string
}

// transition applies the post-poll bookkeeping under the lock: dead
// workers are buried (their leases re-queued, the registry told to
// forget them), failed jobs re-queued, and done jobs turned into fetch
// orders. A worker seen since round began is alive however long the
// round took: the polls run one after another, each up to RPCTimeout,
// so a slow one must not bury the workers that answered before it.
func (c *Coordinator) transition(round time.Time) []fetchOrder {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()

	for id, ws := range c.workers {
		if !ws.lastSeen.Before(round) || now.Sub(ws.lastSeen) <= c.cfg.Liveness {
			continue
		}
		c.stats.DeadWorkers++
		ev := Event{Type: EvWorkerDead, Worker: id,
			Detail: fmt.Sprintf("silent for %v", now.Sub(ws.lastSeen).Round(time.Millisecond))}
		if ws.lease >= 0 {
			l := c.leases[ws.lease]
			rng := l.rng
			ev.Range, ev.Job, ev.Trace = &rng, c.jobID(l.rng), l.trace
			ev.Span, ev.Attempt = spanID(l.trace, l.dispatches), l.dispatches
		}
		c.event(ev)
		c.cfg.Logf("worker %s silent for %v — declaring dead (%d workers remain)",
			id, now.Sub(ws.lastSeen).Round(time.Millisecond), len(c.workers)-1)
		stub := obs.FleetWorker{ID: id}
		if ws.snap != nil {
			stub.ElapsedNS = ws.snap.ElapsedNS
		}
		c.gone = append(c.gone, stub)
		if ws.lease >= 0 {
			c.detach(ws.lease, id, "worker died")
		}
		delete(c.workers, id)
		// The registry takes its own lock inside ours; it never calls a
		// coordinator while holding it.
		if c.cfg.Registry != nil {
			c.cfg.Registry.forget(id)
		}
	}

	var fetches []fetchOrder
	for id, ws := range c.workers {
		if ws.lease < 0 {
			continue
		}
		l := c.leases[ws.lease]
		jobID := l.workers[id]
		if ws.status.JobID != jobID {
			continue // stale report from before the dispatch
		}
		switch ws.status.State {
		case JobDone:
			if l.state == StateLeased {
				fetches = append(fetches, fetchOrder{ws.lease, id, ws.w, jobID})
			}
		case JobFailed:
			ev := c.rangeEvent(EvJobFailed, l)
			ev.Worker, ev.Detail = id, ws.status.Err
			c.event(ev)
			c.cfg.Logf("worker %s failed job %s: %s", id, jobID, ws.status.Err)
			c.detach(ws.lease, id, ws.status.Err)
		}
	}
	return fetches
}

// detach removes a worker from a lease and frees the worker's lease
// slot (under the lock). When the last tenant leaves a still-leased
// range, the attempt failed: the range re-queues behind its backoff, or
// the campaign turns fatal once the attempt budget is spent. On a range
// that is no longer leased it only frees the slot.
func (c *Coordinator) detach(leaseIdx int, id, reason string) {
	if ws, ok := c.workers[id]; ok {
		ws.lease = -1
	}
	l := c.leases[leaseIdx]
	delete(l.workers, id)
	if len(l.workers) > 0 || l.state != StateLeased {
		return
	}
	l.failures++
	l.lastErr = reason
	if l.failures >= c.cfg.MaxAttempts {
		l.state = StatePending
		c.fatal = fmt.Errorf("coord: range %d/%d [%d,%d) failed %d attempts, last error: %s",
			l.rng.Index+1, l.rng.Count, l.rng.Lo, l.rng.Hi, l.failures, reason)
		ev := c.rangeEvent(EvFatal, l)
		ev.Attempt, ev.Detail = l.failures, c.fatal.Error()
		c.event(ev)
		return
	}
	delay := c.cfg.Backoff.Delay(l.failures, jitterDraw)
	l.state = StatePending
	l.notBefore = time.Now().Add(delay)
	c.stats.Requeues++
	ev := c.rangeEvent(EvRequeue, l)
	ev.Worker, ev.Attempt, ev.BackoffNS, ev.Detail = id, l.failures, int64(delay), reason
	c.event(ev)
	c.cfg.Logf("range %d/%d re-queued (failure %d/%d, retry in %v): %s",
		l.rng.Index+1, l.rng.Count, l.failures, c.cfg.MaxAttempts, delay.Round(time.Millisecond), reason)
}

// collect fetches each done job's journal, validates it byte-for-byte
// (decode, header check, completeness) before trusting it, lands it
// under the shard path via journal.WriteFileAtomic, and seats the lease
// as journaled. The slower twin of a speculated range loses the race
// here and is discarded and canceled.
func (c *Coordinator) collect(ctx context.Context, fetches []fetchOrder) {
	for _, f := range fetches {
		cctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
		data, err := f.w.Journal(cctx, f.jobID)
		cancel()
		l := c.leases[f.leaseIdx]
		if err != nil {
			c.mu.Lock()
			c.cfg.Logf("fetching journal of %s from %s: %v", f.jobID, f.id, err)
			c.detach(f.leaseIdx, f.id, fmt.Sprintf("journal fetch: %v", err))
			c.mu.Unlock()
			continue
		}
		path := c.shardPath(l.rng)
		j, err := journal.DecodeBytes(path, data)
		if err == nil {
			err = c.verifyShard(j, l.rng, path)
		}
		if err != nil {
			// A worker handing back a corrupt or wrong journal is a failed
			// attempt like any other; the range re-runs elsewhere.
			c.mu.Lock()
			ev := c.rangeEvent(EvJournalRejected, l)
			ev.Worker, ev.Detail = f.id, err.Error()
			c.event(ev)
			c.cfg.Logf("rejecting journal of %s from %s: %v", f.jobID, f.id, err)
			c.detach(f.leaseIdx, f.id, fmt.Sprintf("invalid journal: %v", err))
			c.mu.Unlock()
			continue
		}

		c.mu.Lock()
		if l.state != StateLeased {
			// The twin already landed this range: first journal wins.
			c.stats.DuplicatesDiscarded++
			ev := c.rangeEvent(EvDuplicateDiscard, l)
			ev.Worker, ev.Detail = f.id, "slower twin's journal discarded"
			c.event(ev)
			c.cfg.Logf("range %d/%d: duplicate journal from %s discarded", l.rng.Index+1, l.rng.Count, f.id)
			c.detach(f.leaseIdx, f.id, "")
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()

		// Land outside the lock, atomically and durably: the landed
		// shards are the lease table a restarted coordinator recovers,
		// and recovery refuses a half-written one.
		if err := journal.WriteFileAtomic(path, data); err != nil {
			c.mu.Lock()
			c.fatal = fmt.Errorf("coord: landing %s: %w", filepath.Base(path), err)
			ev := c.rangeEvent(EvFatal, l)
			ev.Detail = c.fatal.Error()
			c.event(ev)
			c.mu.Unlock()
			return
		}

		c.mu.Lock()
		l.state = StateJournaled
		l.path = path
		if !l.started.IsZero() {
			l.dur = time.Since(l.started)
		}
		c.stats.Journaled++
		ev := c.rangeEvent(EvShardLanded, l)
		ev.Worker = f.id
		if l.dur > 0 {
			ev.Detail = fmt.Sprintf("tenancy %v", l.dur.Round(time.Millisecond))
		}
		c.event(ev)
		var losers []cancelTarget
		for id, jobID := range l.workers {
			if ws, ok := c.workers[id]; ok && id != f.id {
				losers = append(losers, cancelTarget{ws.w, jobID})
			}
			c.detach(f.leaseIdx, id, "")
		}
		c.cfg.Logf("range %d/%d journaled by %s (%d/%d done)",
			l.rng.Index+1, l.rng.Count, f.id, c.stats.Journaled, len(c.leases))
		c.mu.Unlock()

		// The shard is durable: hand its rows to the embedding layer.
		// Outside the lock — the callback may publish events or take its
		// own locks — and on this goroutine only, so calls never overlap.
		if c.cfg.OnShard != nil {
			c.cfg.OnShard(l.rng, j.Rows, false)
		}

		// Cancel the losing twin(s) so they stop burning a worker.
		c.cancel(ctx, losers)
	}
}

// startOrder names one dispatch: run job on w for lease leaseIdx.
type startOrder struct {
	leaseIdx int
	id       string
	w        Worker
	job      Job
}

// assign pairs pending, backoff-expired ranges with idle workers (under
// the lock) and returns the dispatch orders. Lowest range index first —
// deterministic and friendly to tail-watching humans.
func (c *Coordinator) assign(round time.Time) []startOrder {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	idle := c.idleLocked(round)
	var orders []startOrder
	for i, l := range c.leases {
		if len(idle) == 0 {
			break
		}
		if l.state != StatePending || now.Before(l.notBefore) {
			continue
		}
		l.state, l.started = StateLeased, now
		orders = append(orders, c.book(i, idle[0]))
		ev := c.rangeEvent(EvDispatch, l)
		ev.Worker = idle[0]
		c.event(ev)
		idle = idle[1:]
	}
	return orders
}

// idleLocked lists, in ID order, the workers without a lease that were
// seen since round began; call under c.mu. A worker that missed this
// round's poll gets no work: it would likely refuse it, and every
// refusal burns an attempt of the range's budget.
func (c *Coordinator) idleLocked(round time.Time) []string {
	var idle []string
	for id, ws := range c.workers {
		if ws.lease < 0 && !ws.lastSeen.Before(round) {
			idle = append(idle, id)
		}
	}
	sort.Strings(idle)
	return idle
}

// book seats worker id on lease i as one more tenant and returns its
// dispatch order (under the lock). A first dispatch and a speculative
// twin are booked alike, and both go out through dispatch.
func (c *Coordinator) book(i int, id string) startOrder {
	l, ws := c.leases[i], c.workers[id]
	job := Job{ID: c.jobID(l.rng), Spec: c.cfg.Spec, Range: l.rng}
	l.workers[id] = job.ID
	l.dispatches++
	job.Trace, job.Span = l.trace, spanID(l.trace, l.dispatches)
	ws.lease, ws.progressAt = i, time.Now()
	c.stats.Dispatches++
	return startOrder{i, id, ws.w, job}
}

// dispatch performs one Start RPC; a refusal is a failed attempt. A
// refused twin only leaves its range, which keeps its primary.
func (c *Coordinator) dispatch(ctx context.Context, s startOrder) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
	err := s.w.Start(cctx, s.job)
	cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[s.leaseIdx]
	if err != nil {
		c.cfg.Logf("dispatching %s to %s: %v", s.job.ID, s.id, err)
		c.detach(s.leaseIdx, s.id, fmt.Sprintf("dispatch: %v", err))
		return
	}
	c.cfg.Logf("range %d/%d [%d,%d) → %s (attempt %d)",
		l.rng.Index+1, l.rng.Count, l.rng.Lo, l.rng.Hi, s.id, l.dispatches)
}

// speculate books a twin on an idle worker for each straggling range
// with a single tenant and returns the dispatch orders. It only runs
// when no pending range wants the capacity, so speculation never starves
// first-time work. It makes no RPC: the rules and the diagnosis read
// what the last poll brought, so it runs under the lock throughout.
func (c *Coordinator) speculate(round time.Time) []startOrder {
	if c.cfg.Straggler.Disabled {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var completed []time.Duration
	for _, l := range c.leases {
		if l.state == StatePending && !now.Before(l.notBefore) {
			return nil // pending work outranks speculation
		}
		if (l.state == StateJournaled || l.state == StateMerged) && l.dur > 0 {
			completed = append(completed, l.dur)
		}
	}
	idle := c.idleLocked(round)
	var orders []startOrder
	for i, l := range c.leases {
		if len(idle) == 0 {
			break
		}
		if l.state != StateLeased || len(l.workers) != 1 || l.started.IsZero() {
			continue
		}
		var primary string
		for id := range l.workers {
			primary = id
		}
		ws := c.workers[primary]
		projected, _ := projectTotal(now.Sub(l.started), ws.status.Done, ws.status.Total)
		why, slow := c.cfg.Straggler.ShouldSpeculate(projected, now.Sub(ws.progressAt), completed)
		if !slow {
			continue
		}
		// The last poll's snapshot says what the straggler is bound on.
		diag := Classify(ws.snap)
		tid := idle[0]
		idle = idle[1:]
		orders = append(orders, c.book(i, tid))
		c.stats.Speculations++
		ev := c.rangeEvent(EvSpeculate, l)
		ev.Worker = tid
		ev.Detail = fmt.Sprintf("straggling on %s (%s; %s)", primary, why, diag)
		c.event(ev)
		c.cfg.Logf("range %d/%d straggling on %s (%s; %s) — speculating on %s",
			l.rng.Index+1, l.rng.Count, primary, why, diag, tid)
	}
	return orders
}
