package valence_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/resilient"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestFieldScalarMemoryPressure: the field sweep polls the soft memory gate
// at the same layer boundary as its cancellation point; clearing the limit
// and resuming from the attached checkpoint completes to the scalar
// reference's bits.
func TestFieldScalarMemoryPressure(t *testing.T) {
	g := ckptGraph(t, mobile.New(protocols.FloodSet{Rounds: 2}, 3), 2)
	ref := scalarMasks(g, decidedSeed)

	resilient.SetSoftMemLimit(1)
	t.Cleanup(func() { resilient.SetSoftMemLimit(0) })
	_, perr := valence.NewFieldCtx(nil, g)
	resilient.SetSoftMemLimit(0)

	if !errors.Is(perr, resilient.ErrMemory) {
		t.Fatalf("err = %v, want ErrMemory", perr)
	}
	got, rerr := valence.NewFieldCtx(resumeCtx(t, perr), g)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got.Masks(), ref) {
		t.Fatal("resume after memory pressure differs from reference")
	}
}

// TestFieldMemoryLimitReturnsPromptly: with the soft memory limit armed,
// both field entry points (the decided seed and a covering seed) return an
// error wrapping ErrMemory at once. The gate fails at the same layer on
// every poll, so an entry point that retried until the sweep succeeded
// would never return.
func TestFieldMemoryLimitReturnsPromptly(t *testing.T) {
	g, err := core.ExploreID(syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 5, 2), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	resilient.SetSoftMemLimit(1)
	t.Cleanup(func() { resilient.SetSoftMemLimit(0) })

	for _, c := range []struct {
		name  string
		sweep func() error
	}{
		{"NewFieldCtx", func() error { _, err := valence.NewFieldCtx(nil, g); return err }},
		{"NewFieldFrom", func() error { _, err := valence.NewFieldFrom(nil, g, byProcessSeed); return err }},
	} {
		done := make(chan error, 1)
		go func() { done <- c.sweep() }()
		select {
		case err := <-done:
			if !errors.Is(err, resilient.ErrMemory) {
				t.Errorf("%s: err = %v, want ErrMemory", c.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still sweeping after 10s under an armed memory limit", c.name)
		}
	}
}
