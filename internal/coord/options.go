package coord

import (
	"flag"
	"time"
)

// Options is the coordinator knob set of the fleet executor; lbfarmd
// -fleet binds it as flags via Bind. The zero value is NOT usable;
// start from DefaultOptions.
type Options struct {
	// Splits is how many shard ranges to cut a sweep into; 0 auto-sizes
	// to 4 per registered worker (minimum 8), capped at the trial count.
	Splits int

	Liveness    time.Duration // declare a worker dead after this silence
	Poll        time.Duration // scheduler tick
	RPCTimeout  time.Duration // per-RPC deadline
	MaxAttempts int           // per-range failure budget

	BackoffBase   time.Duration
	BackoffMax    time.Duration
	BackoffJitter float64

	ScrapeInterval time.Duration

	NoSpeculate  bool
	SlowFactor   float64
	MinCompleted int
	StallWindow  time.Duration
}

// DefaultOptions mirrors the coordinator's built-in defaults.
func DefaultOptions() Options {
	return Options{
		Liveness:       10 * time.Second,
		Poll:           time.Second,
		RPCTimeout:     5 * time.Second,
		MaxAttempts:    5,
		BackoffBase:    500 * time.Millisecond,
		BackoffMax:     15 * time.Second,
		BackoffJitter:  0.2,
		ScrapeInterval: 5 * time.Second,
		SlowFactor:     2,
		MinCompleted:   1,
		StallWindow:    30 * time.Second,
	}
}

// Bind registers the shared coordinator flags on fs, with o's current
// values as defaults. Call on a DefaultOptions copy before fs.Parse.
func (o *Options) Bind(fs *flag.FlagSet) {
	fs.IntVar(&o.Splits, "splits", o.Splits, "shard ranges to cut each sweep into (0 = 4 per registered worker, minimum 8; more splits than workers lets the pool load-balance and re-issue cheaply)")
	fs.DurationVar(&o.Liveness, "liveness", o.Liveness, "declare a worker dead after this long without a heartbeat or successful poll")
	fs.DurationVar(&o.Poll, "poll", o.Poll, "scheduler tick: status polls, dispatch, and straggler checks")
	fs.DurationVar(&o.RPCTimeout, "rpc-timeout", o.RPCTimeout, "per-RPC deadline for worker calls")
	fs.IntVar(&o.MaxAttempts, "max-attempts", o.MaxAttempts, "per-range failure budget before the campaign fails loudly")
	fs.DurationVar(&o.BackoffBase, "backoff-base", o.BackoffBase, "first retry delay for a failed range (doubles per failure)")
	fs.DurationVar(&o.BackoffMax, "backoff-max", o.BackoffMax, "retry delay ceiling")
	fs.Float64Var(&o.BackoffJitter, "backoff-jitter", o.BackoffJitter, "symmetric random jitter fraction on retry delays")
	fs.DurationVar(&o.ScrapeInterval, "scrape", o.ScrapeInterval, "scrape worker telemetry snapshots this often for the live fleet view (negative disables)")
	fs.BoolVar(&o.NoSpeculate, "no-speculate", o.NoSpeculate, "disable speculative re-issue of straggling ranges")
	fs.Float64Var(&o.SlowFactor, "slow-factor", o.SlowFactor, "speculate a range projected past this multiple of the median completed-range duration")
	fs.IntVar(&o.MinCompleted, "min-completed", o.MinCompleted, "completed ranges required before the straggler baseline is trusted")
	fs.DurationVar(&o.StallWindow, "stall-window", o.StallWindow, "speculate a range whose worker's throughput timeline is flat for this long (0 disables the stall rule)")
}

// backoff projects the backoff knobs into the scheduler's policy type.
func (o Options) backoff() Backoff {
	return Backoff{Base: o.BackoffBase, Max: o.BackoffMax, Jitter: o.BackoffJitter}
}

// straggler projects the speculation knobs into the scheduler's policy
// type.
func (o Options) straggler() StragglerPolicy {
	return StragglerPolicy{
		Disabled:     o.NoSpeculate,
		MinCompleted: o.MinCompleted,
		SlowFactor:   o.SlowFactor,
		StallWindow:  o.StallWindow,
	}
}

// AutoSplits is the shared auto-sizing rule behind Splits == 0: four
// ranges per pooled worker so the fleet load-balances and re-issues
// cheaply, never fewer than 8, never more than one per trial.
func AutoSplits(splits, workers, trials int) int {
	if splits == 0 {
		splits = 4 * workers
		if splits < 8 {
			splits = 8
		}
	}
	if splits > trials {
		splits = trials
	}
	return splits
}
