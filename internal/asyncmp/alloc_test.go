package asyncmp_test

import (
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/protocols"
)

// TestRawSuccessorAllocs guards the phase memo's allocation profile when
// every successor is built: enumerating the raw successors of a depth-1
// MPFlood(3) n=3 state that has a backlog, under both layerings. Go 1.24
// on linux/amd64 measured 80.3 (S^per) and 82.6 (Ssync) allocs per
// successor when every action re-ran every process's Send/Receive/Decide
// and re-encoded every channel history, 9.1 for both with a per-state
// memo of string records, and 3.1 with the model-wide id table, where a
// built successor costs its State, its record slice and its key. The
// bound sits above the last and under the one before.
func TestRawSuccessorAllocs(t *testing.T) {
	const bound = 6.0
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

// TestColdExploreAllocsPerEdge bounds the allocations of one cold serial
// exploration, model construction included, per edge, on the coldbench
// async_nongraded models: S^per MPFlood(3) n=3 to depth 3 and Ssync
// MPFlood(4) n=3 to depth 4. Go 1.24 on linux/amd64 measured 9.34 and
// 9.30 when every successor was built in full before interning dropped
// the duplicates (76% of them), and 1.79 and 1.56 with key-first probing
// over the model's id table, where a duplicate successor costs no
// allocation at all. The bound sits above the latter and well under the
// former.
func TestColdExploreAllocsPerEdge(t *testing.T) {
	for _, c := range []struct {
		name  string
		mk    func() core.Model
		depth int
	}{
		{"Sper MPFlood(3) n=3", func() core.Model { return asyncmp.New(protocols.MPFlood{Phases: 3}, 3) }, 3},
		{"Ssync MPFlood(4) n=3", func() core.Model { return asyncmp.NewSynchronic(protocols.MPFlood{Phases: 4}, 3) }, 4},
	} {
		edges := 0
		allocs := testing.AllocsPerRun(3, func() {
			g, err := core.ExploreIDCtx(nil, c.mk(), c.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			edges = g.NumEdges()
		})
		perEdge := allocs / float64(edges)
		t.Logf("%s: %d edges, %.2f allocs per edge", c.name, edges, perEdge)
		if perEdge > 3 {
			t.Errorf("%s: %.2f allocs per edge, want at most 3", c.name, perEdge)
		}
	}
}
