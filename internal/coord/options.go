package coord

import (
	"flag"
	"time"
)

// Options is the coordinator's knob set: lbfarmd -fleet binds it as
// flags via Bind, and Config carries it into New. DefaultOptions is the
// one table of defaults; New resolves a zero Options to it, and a zero
// knob whose zero value has no meaning of its own to its entry there.
type Options struct {
	// Splits is how many shard ranges to cut a sweep into; 0 auto-sizes
	// to 4 per registered worker (minimum 8). Either way it is capped at
	// the trial count (AutoSplits). More splits than workers is the
	// point: small ranges re-issue cheaply and let the pool balance.
	Splits int

	// Liveness declares a worker dead when no status poll has been
	// answered for this long.
	Liveness time.Duration
	// Poll is the scheduler tick: status polls (which carry each
	// worker's telemetry), liveness checks, dispatch, and straggler
	// checks happen each tick.
	Poll time.Duration
	// RPCTimeout bounds each worker RPC.
	RPCTimeout time.Duration
	// MaxAttempts is the per-range failure budget; exhausting it fails
	// the campaign loudly.
	MaxAttempts int

	// Backoff is the re-queue delay curve of failed ranges. A zero Base
	// retries at once.
	Backoff Backoff

	// Straggler is the speculative re-issue policy. A zero StallWindow
	// disables the stall rule.
	Straggler StragglerPolicy
}

// DefaultOptions is the coordinator's one table of defaults.
func DefaultOptions() Options {
	return Options{
		Liveness:    10 * time.Second,
		Poll:        time.Second,
		RPCTimeout:  5 * time.Second,
		MaxAttempts: 5,
		Backoff:     Backoff{Base: 500 * time.Millisecond, Max: 15 * time.Second, Jitter: 0.2},
		Straggler:   StragglerPolicy{MinCompleted: 1, SlowFactor: 2, StallWindow: 30 * time.Second},
	}
}

// resolve fills o from DefaultOptions: all of it when o is zero,
// otherwise each knob whose zero (or negative) value means nothing of
// its own. Splits 0 (auto-size), a zero StallWindow, and a zero Backoff
// (retry at once) keep their meanings.
// Splits is sized by AutoSplits separately.
func (o Options) resolve() Options {
	d := DefaultOptions()
	if o == (Options{}) {
		return d
	}
	if o.Liveness <= 0 {
		o.Liveness = d.Liveness
	}
	if o.Poll <= 0 {
		o.Poll = d.Poll
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = d.RPCTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = d.MaxAttempts
	}
	if o.Straggler.MinCompleted <= 0 {
		o.Straggler.MinCompleted = d.Straggler.MinCompleted
	}
	if o.Straggler.SlowFactor <= 0 {
		o.Straggler.SlowFactor = d.Straggler.SlowFactor
	}
	return o
}

// Bind registers the coordinator flags on fs, with o's current values
// as defaults. Call on a DefaultOptions copy before fs.Parse.
func (o *Options) Bind(fs *flag.FlagSet) {
	fs.IntVar(&o.Splits, "splits", o.Splits, "shard ranges to cut each sweep into (0 = 4 per registered worker, minimum 8; more splits than workers lets the pool load-balance and re-issue cheaply)")
	fs.DurationVar(&o.Liveness, "liveness", o.Liveness, "declare a worker dead after this long without an answered status poll")
	fs.DurationVar(&o.Poll, "poll", o.Poll, "scheduler tick: status polls (worker telemetry included), dispatch, and straggler checks")
	fs.DurationVar(&o.RPCTimeout, "rpc-timeout", o.RPCTimeout, "per-RPC deadline for worker calls")
	fs.IntVar(&o.MaxAttempts, "max-attempts", o.MaxAttempts, "per-range failure budget before the campaign fails loudly")
	fs.DurationVar(&o.Backoff.Base, "backoff-base", o.Backoff.Base, "first retry delay for a failed range (doubles per failure; 0 retries at once)")
	fs.DurationVar(&o.Backoff.Max, "backoff-max", o.Backoff.Max, "retry delay ceiling")
	fs.Float64Var(&o.Backoff.Jitter, "backoff-jitter", o.Backoff.Jitter, "symmetric random jitter fraction on retry delays")
	fs.BoolVar(&o.Straggler.Disabled, "no-speculate", o.Straggler.Disabled, "disable speculative re-issue of straggling ranges")
	fs.Float64Var(&o.Straggler.SlowFactor, "slow-factor", o.Straggler.SlowFactor, "speculate a range projected past this multiple of the median completed-range duration")
	fs.IntVar(&o.Straggler.MinCompleted, "min-completed", o.Straggler.MinCompleted, "completed ranges required before the straggler baseline is trusted")
	fs.DurationVar(&o.Straggler.StallWindow, "stall-window", o.Straggler.StallWindow, "speculate a range whose polled progress stands still for this long (0 disables the stall rule)")
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
