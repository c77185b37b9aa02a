package asyncmp_test

import (
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/protocols"
)

// TestRawSuccessorAllocs guards the per-state phase memo's allocation
// profile: enumerating the raw successors of a depth-1 MPFlood(3) n=3
// state that has a backlog, under both layerings. Go 1.24 on linux/amd64
// measured 80.3 (S^per) and 82.6 (Ssync) allocs per successor when every
// action re-ran every process's Send/Receive/Decide and re-encoded every
// channel history, and 9.1 for both with the memo and the shared
// flooding-state parser. The bound is a fifth of the former.
func TestRawSuccessorAllocs(t *testing.T) {
	const bound = 16.0
	p := protocols.MPFlood{Phases: 3}
	inputs := []int{0, 1, 1}
	sper, ssync := asyncmp.New(p, 3), asyncmp.NewSynchronic(p, 3)
	for _, c := range []struct {
		name   string
		m      core.Model
		init   *asyncmp.State
		action string
	}{
		{"Sper", sper, sper.Initial(inputs), "[1,0]"},
		{"Ssync", ssync, ssync.Initial(inputs), "(2,A)"},
	} {
		raw := core.CacheOf(c.m).Uncached()
		var x core.State
		for _, s := range raw.Successors(c.init) {
			if s.Action == c.action {
				x = s.State
			}
		}
		if x == nil {
			t.Fatalf("%s: action %s not enumerated", c.name, c.action)
		}
		n := len(raw.Successors(x))
		perSucc := testing.AllocsPerRun(20, func() { raw.Successors(x) }) / float64(n)
		t.Logf("%s: %d successors, %.1f allocs per successor", c.name, n, perSucc)
		if perSucc > bound {
			t.Errorf("%s: %.1f allocs per successor, want at most %.1f", c.name, perSucc, bound)
		}
	}
}
