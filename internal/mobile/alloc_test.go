package mobile_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
)

// TestRawSuccessorAllocs guards the raw successor path's allocation
// profile: the key-first enumeration against a prober that always misses,
// with the model's table warm after the first call, builds every successor
// that differs from the one before it. The source state is the MobileS1
// EIG(2) n=6 initial state for inputs 011010, whose 37 raw successors are
// 31 distinct states, each built once: a receiver that misses a sender's
// input records the gap, so almost every action changes some receiver.
// (The guard used to measure a FloodSet(3) state whose 37 successors are
// one state, which reads 0.2 allocations per successor whatever a build
// costs.) Go 1.24 on linux/amd64 measures 5 allocations per build (the
// State, its locals, decisions, local ids and key) and 2 per call (the
// rendered successor list and the successors' environment key), 5.06 per
// distinct successor; the bound allows one allocation more per build.
func TestRawSuccessorAllocs(t *testing.T) {
	const distinct, bound = 31, 6.0
	m := mobile.New(protocols.EIG{Rounds: 2}, 6)
	raw := m.Uncached()
	x := core.State(m.Initial([]int{0, 1, 1, 0, 1, 0}))
	succs := raw.Successors(x)
	keys := make(map[string]bool, len(succs))
	for _, s := range succs {
		keys[s.State.Key()] = true
	}
	if len(succs) != 37 || len(keys) != distinct {
		t.Fatalf("%d successors, %d distinct; want 37 and %d", len(succs), len(keys), distinct)
	}
	perBuild := testing.AllocsPerRun(20, func() { raw.Successors(x) }) / distinct
	t.Logf("%d successors, %d distinct, %.2f allocs per distinct successor", len(succs), distinct, perBuild)
	if perBuild > bound {
		t.Errorf("%.2f allocs per distinct successor, want at most %.1f", perBuild, bound)
	}
}
