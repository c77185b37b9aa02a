package resilient

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// Decision is the Supervisor's classification of one attempt's error.
type Decision uint8

const (
	// Fail stops the run: the error is permanent (corruption, an
	// invalid-model mismatch, or anything outside the ErrPartial family)
	// and retrying would repeat it.
	Fail Decision = iota
	// Retry backs off and runs another attempt, resuming from the
	// checkpoint the failed attempt attached.
	Retry
	// Degrade steps down the degradation ladder — halve the workers —
	// before retrying.
	// Resource errors (memory pressure, node/valence budgets) land here:
	// retrying at full width would hit the same wall.
	Degrade
)

// Policy configures a Supervisor's retry behavior. The zero value gives a
// usable conservative policy: 3 attempts, 50ms base backoff capped at 30s,
// no wall-clock budget, default classification.
type Policy struct {
	// MaxAttempts bounds the total number of attempts, the first
	// included; values below 1 act as 3.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// retry up to MaxBackoff. Values below 1ns act as 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; values below 1ns act as 30s.
	MaxBackoff time.Duration
	// Budget, when positive, is a wall-clock ceiling across all attempts
	// and backoffs: once exceeded, the next failure is final.
	Budget time.Duration
	// AttemptTimeout, when positive, is a per-attempt deadline: the
	// attempt's child context is canceled with ErrDeadline, the engine
	// stops at its next poll with a checkpoint, and the supervisor
	// retries from it.
	AttemptTimeout time.Duration
	// Seed drives the deterministic jitter stream: equal seeds give equal
	// backoff schedules, which the chaos campaign relies on for
	// reproducible reports.
	Seed uint64
	// Classify overrides the default error classification when non-nil.
	Classify func(error) Decision
	// DegradeOn lists additional sentinels the default classifier maps to
	// Degrade — callers pass their engine budget errors
	// (core.ErrNodeBudget, valence.ErrBudget), which this package cannot
	// name without an import cycle.
	DegradeOn []error
	// Sleep replaces the backoff sleep (tests inject a recorder here).
	// The production sleep aborts early when ctx is canceled.
	Sleep func(time.Duration)
}

// Supervisor runs checkpointable engine ops under a retry policy: each
// failed attempt's checkpoint (attached to its error via WithCheckpoint)
// becomes the next attempt's resume snapshot, so no attempt repeats work a
// previous one finished. A Supervisor is stateless across Run calls and
// safe for sequential reuse; the degradation ladder resets per Run.
type Supervisor struct {
	Policy
	// Store, when non-nil, additionally persists each harvested
	// checkpoint to disk (rotating generations), so a crash of this
	// process resumes where the supervisor had gotten to.
	Store *Store
	// Workers is the full-width worker count attempts start from; values
	// below 1 act as GOMAXPROCS.
	Workers int
}

// Attempt is what a supervised op receives: the attempt's own child
// context (carrying the resume snapshot, if any) and the degradation
// parameters the op should honor.
type Attempt struct {
	// Ctx is canceled when the parent cancels, when AttemptTimeout fires,
	// or when the attempt ends; it carries the previous attempt's
	// checkpoint sections for the engines to Peek/TakeResume.
	Ctx *Ctx
	// N is the attempt number, starting at 1.
	N int
	// Workers is the worker count after degradation steps.
	Workers int
	// Resumed reports whether Ctx carries a resume snapshot.
	Resumed bool
}

// RunStats summarizes one Run for reports: how many attempts ran, how many
// were retries resp. resumed from a checkpoint, how many degradation steps
// were taken, and the total backoff slept.
type RunStats struct {
	Attempts int
	Retries  int
	Resumes  int
	Degrades int
	Backoff  time.Duration
}

// Run executes op under the policy until it succeeds, fails permanently,
// or exhausts its attempt/wall-clock budget. The returned error is nil on
// success; on exhaustion it wraps the last attempt's error (so errors.Is
// against the underlying sentinel still holds). Panics inside op are
// contained into *PanicError and classified like any other error.
func (s *Supervisor) Run(ctx *Ctx, name string, op func(*Attempt) error) (RunStats, error) {
	maxAttempts := s.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 3
	}
	base := s.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxBackoff := s.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 30 * time.Second
	}
	workers := s.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	jitter := s.Seed
	rec := obs.Active()
	tr := obs.Trace()
	var root obs.TraceSpan
	if tr != nil {
		root = tr.Begin("supervisor", 0)
		defer tr.End(root)
	}
	start := time.Now()
	var stats RunStats
	var lastErr error
	pending := ctx.ResumeSections()
	for n := 1; ; n++ {
		if perr := ctx.Err(); perr != nil {
			// Canceled during the previous backoff: wrap the last
			// attempt's error instead of returning the bare cancellation,
			// so its attached checkpoint — the harvested progress — still
			// reaches callers that save on the way out.
			if lastErr != nil {
				return stats, fmt.Errorf("resilient: supervisor canceled before retry (%v): %w", perr, lastErr)
			}
			return stats, perr
		}
		attempt := &Attempt{N: n, Workers: workers, Resumed: len(pending) > 0}
		stats.Attempts++
		if attempt.Resumed {
			stats.Resumes++
		}
		if rec != nil {
			rec.Add("supervisor.attempts", 1)
			if attempt.Resumed {
				rec.Add("supervisor.resumes", 1)
			}
		}
		err := s.runAttempt(ctx, tr, root, op, attempt, pending)
		if err == nil {
			if rec != nil {
				rec.Event("supervisor.done",
					obs.F{Key: "op", Value: name},
					obs.F{Key: "attempts", Value: n},
					obs.F{Key: "workers", Value: workers})
			}
			return stats, nil
		}
		lastErr = err
		decision := s.decide(err)
		if perr := ctx.Err(); perr != nil {
			// The parent was canceled (possibly mid-attempt): whatever the
			// attempt reported, retrying against a dead context only spins.
			decision = Fail
		}
		if decision == Fail {
			if rec != nil {
				rec.Add("supervisor.failfast", 1)
				rec.Event("supervisor.fail",
					obs.F{Key: "op", Value: name},
					obs.F{Key: "attempt", Value: n},
					obs.F{Key: "cause", Value: err.Error()})
			}
			return stats, err
		}
		if n >= maxAttempts {
			if rec != nil {
				rec.Event("supervisor.giveup",
					obs.F{Key: "op", Value: name},
					obs.F{Key: "attempts", Value: n},
					obs.F{Key: "cause", Value: err.Error()})
			}
			return stats, fmt.Errorf("resilient: supervisor gave up after %d attempts: %w", n, err)
		}
		if s.Budget > 0 && time.Since(start) >= s.Budget {
			if rec != nil {
				rec.Event("supervisor.giveup",
					obs.F{Key: "op", Value: name},
					obs.F{Key: "attempts", Value: n},
					obs.F{Key: "cause", Value: "wall-clock budget"})
			}
			return stats, fmt.Errorf("resilient: supervisor wall-clock budget %s exhausted after %d attempts: %w", s.Budget, n, err)
		}
		// Once serial, the ladder is exhausted: keep retrying within the
		// attempt budget — the fault may still be transient — but no step
		// is taken, so none is counted.
		if decision == Degrade && workers > 1 {
			workers /= 2
			stats.Degrades++
			if rec != nil {
				rec.Add("supervisor.degrades", 1)
				rec.Event("supervisor.degrade",
					obs.F{Key: "op", Value: name},
					obs.F{Key: "attempt", Value: n},
					obs.F{Key: "workers", Value: workers},
					obs.F{Key: "cause", Value: err.Error()})
			}
		}
		// Harvest the failed attempt's checkpoint: it becomes the next
		// attempt's resume snapshot (and a durable generation, with a
		// Store), so the retry continues instead of restarting.
		pending = nil
		if ck, ok := CheckpointFrom(err); ok {
			if sections, serr := ck.Sections(); serr == nil {
				pending = sections
				if s.Store != nil {
					if serr := s.Store.Save(sections); serr != nil && rec != nil {
						rec.Event("supervisor.store.error",
							obs.F{Key: "op", Value: name},
							obs.F{Key: "error", Value: serr.Error()})
					}
				}
			}
		}
		backoff := s.backoff(n, base, maxBackoff, &jitter)
		stats.Retries++
		stats.Backoff += backoff
		if rec != nil {
			rec.Add("supervisor.retries", 1)
			rec.Record("supervisor.backoff.ns", backoff.Nanoseconds())
			rec.Event("supervisor.retry",
				obs.F{Key: "op", Value: name},
				obs.F{Key: "attempt", Value: n},
				obs.F{Key: "backoff_ns", Value: backoff.Nanoseconds()},
				obs.F{Key: "resumed", Value: len(pending) > 0},
				obs.F{Key: "workers", Value: workers},
				obs.F{Key: "cause", Value: err.Error()})
		}
		s.sleep(ctx, backoff)
	}
}

// runAttempt executes op on a child context under a recover barrier, with
// the per-attempt deadline armed and — for retries — a span.retry trace
// covering the attempt.
func (s *Supervisor) runAttempt(ctx *Ctx, tr *obs.Tracer, root obs.TraceSpan, op func(*Attempt) error, attempt *Attempt, pending []Section) (err error) {
	child, stop := ctx.Child()
	defer stop()
	if s.AttemptTimeout > 0 {
		t := time.AfterFunc(s.AttemptTimeout, func() { child.Cancel(ErrDeadline) })
		defer t.Stop()
	}
	if len(pending) > 0 {
		child.SetResume(pending)
	}
	attempt.Ctx = child
	if tr != nil && attempt.N > 1 {
		span := tr.Begin("retry", root.ID)
		defer tr.End(span)
	}
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Shard: -1, Value: r, Stack: debug.Stack()}
			if m, ok := obs.Active().(*obs.Metrics); ok && m != nil {
				pe.Counters = m.Snapshot()
			}
			err = pe
		}
	}()
	return op(attempt)
}

// decide classifies an attempt error.
func (s *Supervisor) decide(err error) Decision {
	if s.Classify != nil {
		return s.Classify(err)
	}
	// Corruption (a torn or mutated checkpoint) and invalid-model
	// mismatches (a checkpoint that does not replay) both wrap
	// ErrBadCheckpoint; retrying re-reads the same bytes.
	if errors.Is(err, ErrBadCheckpoint) {
		return Fail
	}
	if errors.Is(err, ErrMemory) {
		return Degrade
	}
	for _, d := range s.DegradeOn {
		if d != nil && errors.Is(err, d) {
			return Degrade
		}
	}
	// The ErrPartial family — cancellation, deadlines, chaos faults,
	// contained panics — left usable partial state behind: retry.
	if errors.Is(err, ErrPartial) {
		return Retry
	}
	return Fail
}

// backoff returns the delay before retry n (1-based): exponential from
// base, capped, with deterministic jitter in [d/2, d] drawn from the
// seeded splitmix64 stream.
func (s *Supervisor) backoff(n int, base, max time.Duration, jitter *uint64) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(splitmix64(jitter)%uint64(half+1))
	}
	return d
}

// sleep waits for the backoff duration, aborting early when ctx cancels.
func (s *Supervisor) sleep(ctx *Ctx, d time.Duration) {
	if s.Sleep != nil {
		s.Sleep(d)
		return
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// splitmix64 advances the jitter stream — the same generator
// internal/chaos uses for plan derivation, duplicated here because chaos
// imports resilient.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
