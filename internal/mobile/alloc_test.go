package mobile_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
)

// TestRawSuccessorAllocs guards the per-state round memo's allocation
// profile: enumerating the 37 raw successors of a depth-1 MobileS1
// FloodSet(3) n=6 state. Go 1.24 on linux/amd64 measured 203.3 allocs per
// successor when every action re-ran the whole round (n Sends, n Delivers,
// n Decides per edge, each re-parsing its string local state), and 17.8
// with the memo and the allocation-light codec. The bound is under a fifth
// of the former.
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
