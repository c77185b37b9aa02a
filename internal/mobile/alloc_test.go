package mobile_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
)

// TestRawSuccessorAllocs guards the raw successor path's allocation
// profile: enumerating the 37 raw successors of a depth-1 MobileS1
// FloodSet(3) n=6 state. Go 1.24 on linux/amd64 measured 203.3 allocs per
// successor when every action re-ran the whole round (n Sends, n Delivers,
// n Decides per edge, each re-parsing its string local state), 17.8 with
// the per-state memo and the allocation-light codec, and 6.6 once the
// phase parser stopped allocating. The raw path is now the key-first
// enumeration against a prober that always misses, with the model's table
// warm after the first call: every successor is built, for 5.1 allocs each
// (the State, its locals, decisions, local ids and key). Exploration itself
// builds only the successors the cache misses (TestColdExploreAllocsPerEdge
// in package syncmp). The bound is under a fifth of the first figure.
func TestRawSuccessorAllocs(t *testing.T) {
	const bound = 40.0
	m := mobile.New(protocols.FloodSet{Rounds: 3}, 6)
	raw := m.Uncached()
	var x core.State
	for _, s := range raw.Successors(m.Initial([]int{0, 1, 1, 0, 1, 0})) {
		if s.Action == "(2,[4])" {
			x = s.State
		}
	}
	if x == nil {
		t.Fatal("action (2,[4]) not enumerated")
	}
	n := len(raw.Successors(x))
	perSucc := testing.AllocsPerRun(20, func() { raw.Successors(x) }) / float64(n)
	t.Logf("%d successors, %.1f allocs per successor", n, perSucc)
	if perSucc > bound {
		t.Errorf("%.1f allocs per successor, want at most %.1f", perSucc, bound)
	}
}
