package coord

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/obs"
)

// SessionConfig parameterises one fleet campaign run through Session —
// the library entry point behind the campaign service's fleet executor
// (lbfarmd -fleet).
type SessionConfig struct {
	// Spec is the campaign to run (required; normalised in place).
	Spec *campaign.Spec
	// Options carries the coordinator knobs (zero value: the
	// DefaultOptions defaults are applied field-wise by Coordinator
	// validation; Splits 0 auto-sizes against the registry pool).
	Options Options
	// JournalDir receives the fetched shard journals and the event log
	// <JournalDir>/<name>.events.jsonl — the campaign's durable state.
	// Per-campaign directories keep sessions from colliding (required).
	JournalDir string
	// Registry, when non-nil, feeds the session its worker pool: the
	// session attaches at construction and detaches at Close.
	Registry *Registry
	// OnShard forwards to Config.OnShard — rows of every durable shard.
	OnShard func(rng Range, rows []campaign.TrialResult, recovered bool)
	// Logf receives the coordinator's log (nil = silent).
	Logf func(format string, args ...any)
}

// Session is one campaign's coordinator lifecycle, packaged so the
// campaign service can run one per admitted campaign (lbfarmd -fleet):
// construct → workers flow in from the registry → Run → FleetInfo →
// Close. Journal recovery happens in NewSession, so a session over a
// previously interrupted JournalDir resumes instead of re-running.
type Session struct {
	coord  *Coordinator
	elog   *EventLog
	elogAt string
	splits int
	detach func()
	once   sync.Once
}

// NewSession validates cfg, opens the event log, cuts and recovers the
// lease table, and attaches the registry. The caller must Close the
// session when done with it (after Run, or on setup failure paths).
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("coord: no spec")
	}
	if err := cfg.Spec.Normalize(); err != nil {
		return nil, err
	}
	hash, err := cfg.Spec.Hash()
	if err != nil {
		return nil, err
	}
	trials, err := cfg.Spec.Trials()
	if err != nil {
		return nil, err
	}
	pool := 0
	if cfg.Registry != nil {
		pool = cfg.Registry.Size()
	}
	splits := AutoSplits(cfg.Options.Splits, pool, len(trials))

	s := &Session{splits: splits}
	// The event log lives with the shard journals: both are durable
	// fault-tolerance records, and both survive an interrupted run for
	// the next session over the same directory to extend.
	s.elogAt = filepath.Join(cfg.JournalDir, cfg.Spec.Name+EventLogSuffix)
	if err := os.MkdirAll(filepath.Dir(s.elogAt), 0o755); err != nil {
		return nil, err
	}
	s.elog, err = OpenEventLog(s.elogAt, cfg.Spec.Name, hash, splits)
	if err != nil {
		return nil, err
	}

	c, err := New(Config{
		Spec:            cfg.Spec,
		Splits:          splits,
		JournalDir:      cfg.JournalDir,
		LivenessTimeout: cfg.Options.Liveness,
		Poll:            cfg.Options.Poll,
		RPCTimeout:      cfg.Options.RPCTimeout,
		MaxAttempts:     cfg.Options.MaxAttempts,
		Backoff:         cfg.Options.backoff(),
		Straggler:       cfg.Options.straggler(),
		EventLog:        s.elog,
		ScrapeInterval:  cfg.Options.ScrapeInterval,
		OnShard:         cfg.OnShard,
		Logf:            cfg.Logf,
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	s.coord = c
	if cfg.Registry != nil {
		s.detach = cfg.Registry.Attach(c)
	}
	return s, nil
}

// Run drives the campaign to its merged result (see Coordinator.Run).
func (s *Session) Run(ctx context.Context) (*campaign.Result, error) {
	return s.coord.Run(ctx)
}

// Close detaches the session from its registry and closes the event
// log. Idempotent; safe on half-constructed sessions.
func (s *Session) Close() error {
	var err error
	s.once.Do(func() {
		if s.detach != nil {
			s.detach()
		}
		if s.elog != nil {
			err = s.elog.Close()
		}
	})
	return err
}

// Splits is the resolved shard count (after auto-sizing).
func (s *Session) Splits() int { return s.splits }

// EventLogPath is where the event log landed.
func (s *Session) EventLogPath() string { return s.elogAt }

// Status snapshots the embedded coordinator's control-plane state.
func (s *Session) Status() api.CoordStatus { return s.coord.Status() }

// Stats returns the embedded coordinator's fault counters.
func (s *Session) Stats() Stats { return s.coord.Stats() }

// FleetSnapshot merges the freshest telemetry of the live pool.
func (s *Session) FleetSnapshot() *obs.Snapshot { return s.coord.FleetSnapshot() }

// FleetInfo scrapes the surviving workers one last time and assembles
// the fleetinfo sidecar document (see Coordinator.FleetInfo).
func (s *Session) FleetInfo(ctx context.Context) *obs.FleetInfo {
	return s.coord.FleetInfo(ctx)
}

// SignalContext is the shared CLI signal plumbing: a context canceled
// on SIGINT/SIGTERM, restoring default signal handling once cancel is
// called (so a second signal kills a stuck drain).
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
