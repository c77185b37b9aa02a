package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/obs"
	"repro/internal/resilient"
)

// ExitForced is the exit code of the second-stage (forced) SIGINT path.
// It is distinct from both the graceful interrupted-run exit (the CLIs
// return 1 through their error path after saving a checkpoint) and the
// shell's default SIGINT death (130), so scripts can tell "the user
// double-interrupted and the run force-exited after closing the journal"
// apart from every other stop.
const ExitForced = 131

// ResilienceFlags holds the shared cancellation/checkpoint/retry flags of
// the command-line tools.
type ResilienceFlags struct {
	// Deadline, when positive, cancels the run with ErrDeadline after it
	// elapses.
	Deadline time.Duration
	// Checkpoint, when non-empty, is the path an interrupted run writes its
	// resumable snapshot to.
	Checkpoint string
	// Resume, when non-empty, is the path of a checkpoint file to resume
	// from.
	Resume string
	// Retries is how many times a retryable failure is retried under the
	// supervisor (0 = run once, no supervision).
	Retries int
	// Backoff is the supervisor's base backoff before the first retry.
	Backoff time.Duration
	// KeepCheckpoints is how many checkpoint generations to retain at the
	// -checkpoint path (keep-last-K rotation; 1 = single file).
	KeepCheckpoints int
}

// RegisterResilience registers the shared
// -deadline/-checkpoint/-resume/-retries/-backoff/-keep-checkpoints flags
// on a flag set. Parsing rejects a negative duration, -retries < 0 and
// -keep-checkpoints < 1.
func RegisterResilience(fs *flag.FlagSet) *ResilienceFlags {
	f := &ResilienceFlags{Backoff: 100 * time.Millisecond, KeepCheckpoints: 1}
	fs.Var(duration{&f.Deadline}, "deadline", "cancel the run after `duration` (0 = none)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "write a resumable snapshot to `file` when interrupted")
	fs.StringVar(&f.Resume, "resume", "", "resume from the checkpoint `file` of an interrupted run")
	fs.Var(atLeast{&f.Retries, 0}, "retries", "retry a failed run up to `n` times under the supervisor, resuming from checkpoints (0 = no retry)")
	fs.Var(duration{&f.Backoff}, "backoff", "supervisor base backoff: wait `duration` before the first retry (doubles per retry, seeded jitter)")
	fs.Var(atLeast{&f.KeepCheckpoints, 1}, "keep-checkpoints", "checkpoint generations to retain at the -checkpoint path (keep-last-`k`)")
	return f
}

// Store returns the generation store rooted at the -checkpoint path, or
// nil when no path was given.
func (f *ResilienceFlags) Store() *resilient.Store {
	if f.Checkpoint == "" {
		return nil
	}
	return &resilient.Store{Path: f.Checkpoint, Keep: f.KeepCheckpoints}
}

// Supervisor builds the retry supervisor the flags describe: -retries+1
// total attempts, -backoff base delay, and checkpoints persisted to the
// -checkpoint generation store. Callers that need a per-run jitter seed
// set Seed on the result.
func (f *ResilienceFlags) Supervisor() *resilient.Supervisor {
	return &resilient.Supervisor{
		Policy: resilient.Policy{
			MaxAttempts: f.Retries + 1,
			BaseBackoff: f.Backoff,
		},
		Store: f.Store(),
	}
}

// Start builds the run's cancellation context: the -deadline timer is
// armed, the -resume checkpoint's sections are loaded into the context
// (falling back across generations when the newest is torn or corrupt),
// and SIGINT is routed to cancellation — the first signal cancels the
// context (the engines stop at the next poll with a checkpoint attached
// to their error), a second closes the journal and force-exits with
// ExitForced. The returned stop function releases the timer and the
// signal handler.
func (f *ResilienceFlags) Start() (*resilient.Ctx, func(), error) {
	var ctx *resilient.Ctx
	var release func()
	if f.Deadline > 0 {
		ctx, release = resilient.WithDeadline(f.Deadline)
	} else {
		ctx, _ = resilient.WithCancel()
		release = func() {}
	}
	if f.Resume != "" {
		store := resilient.Store{Path: f.Resume, Keep: f.KeepCheckpoints}
		sections, gen, err := store.Load()
		if err != nil {
			release()
			return nil, nil, fmt.Errorf("resume: %w", err)
		}
		if gen > 0 {
			fmt.Fprintf(os.Stderr, "resume: generation %d (%s is torn or corrupt, fell back to %s)\n",
				gen, f.Resume, fmt.Sprintf("%s.%d", f.Resume, gen))
		}
		ctx.SetResume(sections)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	done := make(chan struct{})
	go func() {
		n := 0
		for {
			select {
			case <-done:
				return
			case <-sig:
				n++
				if n == 1 {
					fmt.Fprintln(os.Stderr, "interrupt: stopping at the next safe point (interrupt again to force exit)")
					ctx.Cancel(fmt.Errorf("%w: interrupted by signal", resilient.ErrCanceled))
					continue
				}
				// Forced exit: close (not just sync) the journal so the
				// buffered tail reaches the sink before the process dies
				// and no later write can race the exit.
				_ = obs.Active().CloseJournal()
				os.Exit(ExitForced)
			}
		}
	}()
	stop := func() {
		signal.Stop(sig)
		close(done)
		release()
	}
	return ctx, stop, nil
}

// Finish post-processes a run error: interruption-family errors (anything
// wrapping resilient.ErrPartial) get their attached checkpoint saved to
// the -checkpoint generation store and a final run.interrupted event
// emitted with the checkpoint path, so the journal's tail explains the
// stop. Other errors (and nil) pass through untouched. The returned error
// is non-nil exactly when err was, so callers keep their nonzero exit.
func (f *ResilienceFlags) Finish(err error) error {
	if err == nil || !errors.Is(err, resilient.ErrPartial) {
		return err
	}
	saved := ""
	if store := f.Store(); store != nil {
		ok, serr := store.SaveError(err)
		switch {
		case serr != nil:
			err = fmt.Errorf("%w (checkpoint not saved: %v)", err, serr)
		case ok:
			saved = f.Checkpoint
			err = fmt.Errorf("%w (checkpoint saved to %s; rerun with -resume %s)", err, saved, saved)
		}
	}
	if rec := obs.Active(); rec != nil {
		rec.Event("run.interrupted",
			obs.F{Key: "cause", Value: err.Error()},
			obs.F{Key: "checkpoint", Value: saved})
	}
	// The buffered journal tail holds exactly the events explaining the
	// stop.
	_ = obs.Active().SyncJournal()
	return err
}
