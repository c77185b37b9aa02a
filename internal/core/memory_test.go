package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/resilient"
)

// TestExploreMemoryPressureCheckpoints: with an unsatisfiable soft memory
// limit, exploration stops at its next layer boundary with an ErrMemory in
// the ErrPartial family and a checkpoint attached; once the limit clears,
// resuming yields the bit-identical graph. This is the engine half of the
// supervisor's degradation ladder.
func TestExploreMemoryPressureCheckpoints(t *testing.T) {
	full, err := core.ExploreIDCtx(nil, newCkptModel(), 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	resilient.SetSoftMemLimit(1) // any live heap exceeds this
	defer resilient.SetSoftMemLimit(0)
	partial, perr := core.ExploreIDCtx(nil, newCkptModel(), 3, 0, 1)
	resilient.SetSoftMemLimit(0)

	if !errors.Is(perr, resilient.ErrMemory) {
		t.Fatalf("err = %v, want ErrMemory", perr)
	}
	if !errors.Is(perr, resilient.ErrPartial) {
		t.Fatalf("memory stop outside the ErrPartial family: %v", perr)
	}
	if partial == nil || partial.ReachedDepth() >= full.ReachedDepth() {
		t.Fatalf("memory stop did not interrupt early (reached %v)", partial)
	}

	resumed, rerr := core.ExploreIDCtx(roundTrip(t, perr), newCkptModel(), 3, 0, 1)
	if rerr != nil {
		t.Fatalf("resume after memory pressure: %v", rerr)
	}
	idGraphsIdentical(t, full, resumed)
}

// TestSoftMemLimitDisabledIsFree: a zero or negative limit disables the
// gate — MemPressure must return nil without reading runtime metrics.
func TestSoftMemLimitDisabledIsFree(t *testing.T) {
	resilient.SetSoftMemLimit(0)
	if err := resilient.MemPressure(); err != nil {
		t.Fatalf("disabled gate reported %v", err)
	}
	resilient.SetSoftMemLimit(-5)
	if err := resilient.MemPressure(); err != nil {
		t.Fatalf("negative limit reported %v", err)
	}
	if got := resilient.SoftMemLimit(); got != -5 {
		t.Fatalf("SoftMemLimit = %d, want the stored -5", got)
	}
	resilient.SetSoftMemLimit(0)
}
