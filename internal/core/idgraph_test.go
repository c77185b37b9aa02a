package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/shmem"
)

// TestIDGraphParentWalkback checks the parent-pointer invariants: inits
// have no parent, every other node's parent chain is a valid path whose
// edges exist in the CSR arrays, and PathTo replays to the node itself
// with exactly DepthOf steps (parents are BFS, so paths are shortest).
func TestIDGraphParentWalkback(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	isInit := make(map[uint32]bool)
	for _, u := range g.Inits {
		isInit[u] = true
		if _, _, ok := g.Parent(u); ok {
			t.Errorf("init node %d has a parent", u)
		}
	}
	for u := 0; u < g.Len(); u++ {
		exec := g.PathTo(uint32(u))
		if exec.Len() != int(g.DepthOf[u]) {
			t.Fatalf("node %d: path length %d != depth %d", u, exec.Len(), g.DepthOf[u])
		}
		if exec.Last().Key() != g.Keys[u] {
			t.Fatalf("node %d: path ends at %q, not the node", u, exec.Last().Key())
		}
		root, ok := g.NodeByKey(exec.Init.Key())
		if !ok || !isInit[root] {
			t.Fatalf("node %d: path starts at non-init %q", u, exec.Init.Key())
		}
		// Each step must be a recorded edge of the previous state.
		cur := root
		for _, st := range exec.Steps {
			labels, to := g.Out(cur)
			found := false
			for i := range labels {
				if g.Label(labels[i]) == st.Action && g.Keys[to[i]] == st.State.Key() {
					cur = to[i]
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d: step %q not a recorded edge of node %d", u, st.Action, cur)
			}
		}
	}
}

func TestIDGraphLookupsAndGraded(t *testing.T) {
	m := shmem.New(protocols.SMFullInfo{}, 3)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Graded() {
		t.Error("layered model's graph should be graded")
	}
	if g.NumLayers() != 3 {
		t.Errorf("NumLayers = %d, want 3", g.NumLayers())
	}
	for u := 0; u < g.Len(); u++ {
		if v, ok := g.NodeByKey(g.Keys[u]); !ok || v != uint32(u) {
			t.Fatalf("NodeByKey(%q) = (%d,%v), want %d", g.Keys[u], v, ok, u)
		}
	}
	if _, ok := g.NodeByKey("no such key"); ok {
		t.Error("NodeByKey matched a missing key")
	}
}
