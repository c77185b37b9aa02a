package valence_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/valence"
)

// quadraticSimilarityGraph is the original all-pairs construction, kept
// here as the differential reference for the bucketed SimilarityGraph.
func quadraticSimilarityGraph(states []core.State) *graph.Undirected {
	g := graph.NewUndirected(len(states))
	for i := 0; i < len(states); i++ {
		for j := i + 1; j < len(states); j++ {
			if _, ok := core.Similar(states[i], states[j]); ok {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// edgeSet normalizes a graph to its sorted, deduplicated edge list. A
// vertex's neighbours come first in its component's BFS order, each one
// step away.
func edgeSet(g *graph.Undirected) []string {
	seen := make(map[string]bool)
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Component(u)[1:] {
			if len(g.Path(u, v)) != 2 {
				break
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			seen[fmt.Sprintf("%d-%d", a, b)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// TestSimilarityGraphMatchesQuadratic is the differential test for the
// bucketed SimilarityGraph: on the layer sets of the E1 experiment (initial
// layers of the synchronous mobile-failures model) and the E4 experiment
// (deep layers of the asynchronous message-passing model), the bucketed
// construction must produce exactly the edge set, components, and diameter
// of the all-pairs construction.
func TestSimilarityGraphMatchesQuadratic(t *testing.T) {
	var layerSets []struct {
		name   string
		states []core.State
	}
	// E1 layers: every depth of the mobile FloodSet graph at n=4.
	m1 := mobile.New(protocols.FloodSet{Rounds: 2}, 4)
	g1, err := core.ExploreIDCtx(nil, m1, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= g1.Depth; d++ {
		states := make([]core.State, 0, len(g1.Layer(d)))
		for _, u := range g1.Layer(d) {
			states = append(states, g1.States[u])
		}
		layerSets = append(layerSets, struct {
			name   string
			states []core.State
		}{fmt.Sprintf("e1-mobile-n4-d%d", d), states})
	}
	// E4 layers: the asynchronous message-passing model at n=3.
	m2 := asyncmp.New(protocols.MPFlood{Phases: 1}, 3)
	g2, err := core.ExploreIDCtx(nil, m2, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= g2.Depth; d++ {
		states := make([]core.State, 0, len(g2.Layer(d)))
		for _, u := range g2.Layer(d) {
			states = append(states, g2.States[u])
		}
		layerSets = append(layerSets, struct {
			name   string
			states []core.State
		}{fmt.Sprintf("e4-asyncmp-n3-d%d", d), states})
	}

	for _, ls := range layerSets {
		t.Run(ls.name, func(t *testing.T) {
			fast := valence.SimilarityGraph(ls.states)
			slow := quadraticSimilarityGraph(ls.states)
			fe, se := edgeSet(fast), edgeSet(slow)
			if len(fe) != len(se) {
				t.Fatalf("%d states: %d edges != %d (quadratic)", len(ls.states), len(fe), len(se))
			}
			for i := range fe {
				if fe[i] != se[i] {
					t.Fatalf("edge sets differ at %d: %s vs %s", i, fe[i], se[i])
				}
			}
			if fc, sc := len(fast.Components()), len(slow.Components()); fc != sc {
				t.Errorf("components %d != %d", fc, sc)
			}
			fd, fconn := fast.Diameter()
			sd, sconn := slow.Diameter()
			if fd != sd || fconn != sconn {
				t.Errorf("diameter (%d,%v) != (%d,%v)", fd, fconn, sd, sconn)
			}
		})
	}
}
