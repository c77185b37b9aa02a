package resilient_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/resilient"
)

// noSleep is the Sleep hook tests inject so retries don't wall-clock wait;
// it records each backoff for schedule assertions.
func noSleep(into *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *into = append(*into, d) }
}

// TestSupervisorRetriesTransient: a fault from the ErrPartial family is
// retried until the op succeeds, and RunStats reflects the attempts.
func TestSupervisorRetriesTransient(t *testing.T) {
	var slept []time.Duration
	sup := &resilient.Supervisor{Policy: resilient.Policy{
		MaxAttempts: 5,
		Sleep:       noSleep(&slept),
	}}
	fails := 3
	stats, err := sup.Run(resilient.Background(), "op", func(a *resilient.Attempt) error {
		if a.N <= fails {
			return fmt.Errorf("transient: %w", resilient.ErrCanceled)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Attempts != 4 || stats.Retries != 3 {
		t.Errorf("stats = %+v, want 4 attempts / 3 retries", stats)
	}
	if len(slept) != 3 {
		t.Errorf("slept %d times, want 3", len(slept))
	}
}

// TestSupervisorContainsPanic: a panic inside the op is converted to a
// *PanicError (which wraps ErrPartial) and retried like any transient.
func TestSupervisorContainsPanic(t *testing.T) {
	var slept []time.Duration
	sup := &resilient.Supervisor{Policy: resilient.Policy{
		MaxAttempts: 3,
		Sleep:       noSleep(&slept),
	}}
	stats, err := sup.Run(resilient.Background(), "op", func(a *resilient.Attempt) error {
		if a.N == 1 {
			panic("kernel blew up")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", stats.Attempts)
	}
}

// TestSupervisorPanicExhaustionWrapsPanicError: when every attempt panics,
// the final error still exposes the *PanicError via errors.As.
func TestSupervisorPanicExhaustionWrapsPanicError(t *testing.T) {
	var slept []time.Duration
	sup := &resilient.Supervisor{Policy: resilient.Policy{
		MaxAttempts: 2,
		Sleep:       noSleep(&slept),
	}}
	stats, err := sup.Run(resilient.Background(), "op", func(*resilient.Attempt) error {
		panic("always")
	})
	if err == nil {
		t.Fatal("Run succeeded, want exhaustion")
	}
	var pe *resilient.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want to wrap *PanicError", err)
	}
	if pe.Value != "always" {
		t.Errorf("panic value = %v, want %q", pe.Value, "always")
	}
	if stats.Attempts != 2 || stats.Retries != 1 {
		t.Errorf("stats = %+v, want 2 attempts / 1 retry", stats)
	}
}

// TestSupervisorFailFast: corruption and non-partial errors are never
// retried — one attempt, error returned verbatim.
func TestSupervisorFailFast(t *testing.T) {
	for name, cause := range map[string]error{
		"corrupt checkpoint": fmt.Errorf("load: %w", resilient.ErrCorruptCheckpoint),
		"bad checkpoint":     fmt.Errorf("load: %w", resilient.ErrBadCheckpoint),
		"plain error":        errors.New("not in the partial family"),
	} {
		var slept []time.Duration
		sup := &resilient.Supervisor{Policy: resilient.Policy{
			MaxAttempts: 5,
			Sleep:       noSleep(&slept),
		}}
		calls := 0
		stats, err := sup.Run(resilient.Background(), "op", func(*resilient.Attempt) error {
			calls++
			return cause
		})
		if !errors.Is(err, cause) {
			t.Errorf("%s: err = %v, want %v", name, err, cause)
		}
		if calls != 1 || stats.Attempts != 1 || stats.Retries != 0 {
			t.Errorf("%s: %d calls, stats %+v — want exactly one attempt", name, calls, stats)
		}
	}
}

// TestSupervisorGiveUp: exhausting MaxAttempts wraps the last error so
// errors.Is against the underlying sentinel still holds.
func TestSupervisorGiveUp(t *testing.T) {
	var slept []time.Duration
	sup := &resilient.Supervisor{Policy: resilient.Policy{
		MaxAttempts: 3,
		Sleep:       noSleep(&slept),
	}}
	stats, err := sup.Run(resilient.Background(), "op", func(*resilient.Attempt) error {
		return fmt.Errorf("still down: %w", resilient.ErrDeadline)
	})
	if err == nil || !errors.Is(err, resilient.ErrDeadline) {
		t.Fatalf("err = %v, want wrapped ErrDeadline", err)
	}
	if stats.Attempts != 3 || stats.Retries != 2 {
		t.Errorf("stats = %+v, want 3 attempts / 2 retries", stats)
	}
}

// TestSupervisorDeterministicBackoff: equal seeds give byte-identical
// backoff schedules; the schedule is exponential-with-jitter within
// [base/2, cap] and capped at MaxBackoff.
func TestSupervisorDeterministicBackoff(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		var slept []time.Duration
		sup := &resilient.Supervisor{Policy: resilient.Policy{
			MaxAttempts: 8,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  80 * time.Millisecond,
			Seed:        seed,
			Sleep:       noSleep(&slept),
		}}
		_, err := sup.Run(resilient.Background(), "op", func(*resilient.Attempt) error {
			return resilient.ErrCanceled
		})
		if err == nil {
			t.Fatal("want exhaustion")
		}
		return slept
	}
	a, b := schedule(42), schedule(42)
	if len(a) != 7 {
		t.Fatalf("schedule length = %d, want 7", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 schedules diverge at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	other := schedule(43)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical jitter — stream not seeded")
	}
	// Envelope: retry n draws from [cap/2, cap] where cap = min(base<<(n-1), max).
	base, max := 10*time.Millisecond, 80*time.Millisecond
	for i, d := range a {
		cap := base << i
		if cap > max {
			cap = max
		}
		if d < cap/2 || d > cap {
			t.Errorf("retry %d backoff %v outside [%v, %v]", i+1, d, cap/2, cap)
		}
	}
}

// TestSupervisorResumeFlow: the checkpoint attached to a failed attempt's
// error arrives as the next attempt's resume snapshot, Resumed is set, and
// the sections survive the hand-off byte-for-byte.
func TestSupervisorResumeFlow(t *testing.T) {
	var slept []time.Duration
	sup := &resilient.Supervisor{Policy: resilient.Policy{
		MaxAttempts: 3,
		Sleep:       noSleep(&slept),
	}}
	snap := []resilient.Section{
		{Tag: resilient.TagExplore, Data: []byte("partial graph")},
		{Tag: resilient.TagField, Data: []byte("masks")},
	}
	var resumedWith []resilient.Section
	stats, err := sup.Run(resilient.Background(), "op", func(a *resilient.Attempt) error {
		switch a.N {
		case 1:
			if a.Resumed {
				t.Error("first attempt claims to be resumed")
			}
			return resilient.WithCheckpoint(fmt.Errorf("interrupted: %w", resilient.ErrCanceled), ckpt{snap})
		default:
			if !a.Resumed {
				t.Error("second attempt not marked resumed")
			}
			resumedWith = a.Ctx.ResumeSections()
			return nil
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", stats.Resumes)
	}
	if len(resumedWith) != 2 || string(resumedWith[0].Data) != "partial graph" || resumedWith[1].Tag != resilient.TagField {
		t.Errorf("resume sections = %+v, want the checkpointed snapshot", resumedWith)
	}
}

// TestSupervisorResumeFromParentCtx: sections pre-seeded on the parent ctx
// (a CLI -resume) reach the FIRST attempt, which counts as a resume.
func TestSupervisorResumeFromParentCtx(t *testing.T) {
	var slept []time.Duration
	sup := &resilient.Supervisor{Policy: resilient.Policy{
		MaxAttempts: 2,
		Sleep:       noSleep(&slept),
	}}
	ctx, cancel := resilient.WithCancel()
	defer cancel()
	ctx.SetResume([]resilient.Section{{Tag: resilient.TagCertify, Data: []byte("dfs")}})
	stats, err := sup.Run(ctx, "op", func(a *resilient.Attempt) error {
		if !a.Resumed {
			t.Error("attempt 1 should resume from the parent snapshot")
		}
		if got := a.Ctx.TakeResume(resilient.TagCertify); string(got) != "dfs" {
			t.Errorf("resume payload = %q, want %q", got, "dfs")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", stats.Resumes)
	}
}

// TestSupervisorCancelDuringBackoffKeepsCheckpoint: a parent cancellation
// during the backoff sleep must not reduce the run to a bare ctx error —
// the returned error still wraps the last attempt's error and carries its
// checkpoint, so callers can save the harvested progress on the way out.
func TestSupervisorCancelDuringBackoffKeepsCheckpoint(t *testing.T) {
	ctx, cancel := resilient.WithCancel()
	defer cancel()
	sup := &resilient.Supervisor{Policy: resilient.Policy{
		MaxAttempts: 5,
		Sleep:       func(time.Duration) { cancel() },
	}}
	snap := []resilient.Section{{Tag: resilient.TagExplore, Data: []byte("harvested")}}
	stats, err := sup.Run(ctx, "op", func(*resilient.Attempt) error {
		return resilient.WithCheckpoint(fmt.Errorf("interrupted: %w", resilient.ErrDeadline), ckpt{snap})
	})
	if err == nil {
		t.Fatal("Run succeeded, want cancellation")
	}
	if !errors.Is(err, resilient.ErrDeadline) {
		t.Errorf("err = %v, want to wrap the last attempt's ErrDeadline", err)
	}
	ck, ok := resilient.CheckpointFrom(err)
	if !ok {
		t.Fatal("returned error lost the harvested checkpoint")
	}
	sections, serr := ck.Sections()
	if serr != nil || len(sections) != 1 || string(sections[0].Data) != "harvested" {
		t.Errorf("checkpoint sections = %+v (%v), want the harvested snapshot", sections, serr)
	}
	if stats.Attempts != 1 || stats.Retries != 1 {
		t.Errorf("stats = %+v, want 1 attempt / 1 retry", stats)
	}
}

// TestSupervisorStorePersistsCheckpoints: with a Store attached, each
// harvested checkpoint also becomes a durable generation on disk.
func TestSupervisorStorePersistsCheckpoints(t *testing.T) {
	var slept []time.Duration
	store := &resilient.Store{Path: t.TempDir() + "/sup.ckpt", Keep: 2}
	sup := &resilient.Supervisor{
		Policy: resilient.Policy{MaxAttempts: 3, Sleep: noSleep(&slept)},
		Store:  store,
	}
	snap := []resilient.Section{{Tag: resilient.TagExplore, Data: []byte("gen")}}
	_, err := sup.Run(resilient.Background(), "op", func(a *resilient.Attempt) error {
		if a.N == 1 {
			return resilient.WithCheckpoint(fmt.Errorf("x: %w", resilient.ErrCanceled), ckpt{snap})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sections, gen, err := store.Load()
	if err != nil {
		t.Fatalf("Load after supervised run: %v", err)
	}
	if gen != 0 || len(sections) != 1 || string(sections[0].Data) != "gen" {
		t.Errorf("Load = gen %d, %+v", gen, sections)
	}
}

// TestSupervisorParentCancelStops: a canceled parent context forces Fail
// regardless of the attempt error's class, and a pre-canceled parent never
// runs the op at all.
func TestSupervisorParentCancelStops(t *testing.T) {
	var slept []time.Duration
	sup := &resilient.Supervisor{Policy: resilient.Policy{
		MaxAttempts: 10,
		Sleep:       noSleep(&slept),
	}}
	ctx, cancel := resilient.WithCancel()
	calls := 0
	_, err := sup.Run(ctx, "op", func(a *resilient.Attempt) error {
		calls++
		cancel()
		return a.Ctx.Err()
	})
	if err == nil || !errors.Is(err, resilient.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if calls != 1 {
		t.Errorf("op ran %d times after parent cancel, want 1", calls)
	}

	calls = 0
	if _, err := sup.Run(ctx, "op", func(*resilient.Attempt) error { calls++; return nil }); !errors.Is(err, resilient.ErrCanceled) {
		t.Errorf("pre-canceled parent: err = %v, want ErrCanceled", err)
	}
	if calls != 0 {
		t.Errorf("op ran %d times under a pre-canceled parent, want 0", calls)
	}
}
