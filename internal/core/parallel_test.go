package core_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// graphsIdentical asserts the two dense graphs are bit-identical: same
// node numbering and keys, same depths, same inits, same CSR edges (order
// included), same discovery parents.
func graphsIdentical(t *testing.T, serial, parallel *core.IDGraph) {
	t.Helper()
	if !reflect.DeepEqual(serial.Keys, parallel.Keys) {
		t.Fatalf("keys differ: serial %d nodes, parallel %d", serial.Len(), parallel.Len())
	}
	if !reflect.DeepEqual(serial.DepthOf, parallel.DepthOf) {
		t.Fatal("DepthOf differs")
	}
	if !reflect.DeepEqual(serial.Inits, parallel.Inits) {
		t.Fatal("Inits differ")
	}
	if !reflect.DeepEqual(serial.EdgeStart, parallel.EdgeStart) ||
		!reflect.DeepEqual(serial.EdgeAction, parallel.EdgeAction) ||
		!reflect.DeepEqual(serial.EdgeTo, parallel.EdgeTo) {
		t.Fatal("CSR edges differ")
	}
	if !reflect.DeepEqual(serial.ParentOf, parallel.ParentOf) {
		t.Fatal("ParentOf differs")
	}
}

// TestExploreParallelMatchesSerial explores a fresh model at each worker
// count, so that every parallel expansion is a cold one compared with a
// cold serial one: a second exploration of one model value would take the
// graph its cache remembers.
func TestExploreParallelMatchesSerial(t *testing.T) {
	models := []struct {
		name  string
		m     func() core.Model
		depth int
	}{
		{"mobile", func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }, 2},
		{"mobile-full", func() core.Model { return mobile.NewFull(protocols.FloodSet{Rounds: 2}, 3) }, 1},
		{"sync-s1", func() core.Model { return syncmp.NewS1(protocols.FloodSet{Rounds: 2}, 3) }, 2},
		{"sync-st", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1) }, 2},
		{"sync-st-general", func() core.Model { return syncmp.NewStGeneral(protocols.FloodSet{Rounds: 2}, 3, 1) }, 2},
		{"sync-st-multi", func() core.Model { return syncmp.NewStMulti(protocols.FloodSet{Rounds: 2}, 3, 2, 2) }, 2},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := core.ExploreIDCtx(nil, tc.m(), tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 3, 8} {
				par, err := core.ExploreIDCtx(nil, tc.m(), tc.depth, 0, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				graphsIdentical(t, serial, par)
				if hits := par.Cache.Stats().Hits; hits != 0 {
					t.Fatalf("workers=%d: %d nodes reused; the exploration was not cold", workers, hits)
				}
			}
		})
	}
}

func TestExploreParallelBudgetMatchesSerial(t *testing.T) {
	const budget = 25
	mkModel := func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 3}, 3) }
	serial, serr := core.ExploreIDCtx(nil, mkModel(), 3, budget, 1)
	if !errors.Is(serr, core.ErrNodeBudget) {
		t.Fatalf("serial err = %v", serr)
	}
	par, perr := core.ExploreIDCtx(nil, mkModel(), 3, budget, 4)
	if !errors.Is(perr, core.ErrNodeBudget) {
		t.Fatalf("parallel err = %v", perr)
	}
	if serr.Error() != perr.Error() {
		t.Errorf("error text differs: %q vs %q", serr, perr)
	}
	graphsIdentical(t, serial, par)
}

// TestCacheHitsCountReuse: Hits counts the expanded nodes an exploration
// takes from the graph its cache remembers, not exploration's read of the
// lists it has just enumerated. A cold exploration reports the same counts
// at one and two workers, no hit and one enumeration per expanded node,
// and re-exploring over the warm cache reports one hit per expanded node
// and no new enumeration.
func TestCacheHitsCountReuse(t *testing.T) {
	const depth = 3
	var cold []core.CacheStats
	for _, w := range []int{1, 2} {
		m := mobile.New(protocols.FloodSet{Rounds: 3}, 4)
		g, err := core.ExploreIDCtx(nil, m, depth, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		expanded := g.Len() - len(g.Layer(depth))
		st := g.Cache.Stats()
		if st.Hits != 0 || st.Enumerations != expanded {
			t.Errorf("w=%d cold: %d hits, %d enumerations; want 0 and %d", w, st.Hits, st.Enumerations, expanded)
		}
		cold = append(cold, st)
		if _, err := core.ExploreIDCtx(nil, m, depth, 0, w); err != nil {
			t.Fatal(err)
		}
		st = g.Cache.Stats()
		if st.Hits != int64(expanded) || st.Enumerations != expanded {
			t.Errorf("w=%d warm: %d hits, %d enumerations; want %d and %d", w, st.Hits, st.Enumerations, expanded, expanded)
		}
	}
	if cold[0].Hits != cold[1].Hits || cold[0].Enumerations != cold[1].Enumerations {
		t.Errorf("cold counts differ by worker count: %d/%d at w=1, %d/%d at w=2",
			cold[0].Hits, cold[0].Enumerations, cold[1].Hits, cold[1].Enumerations)
	}
}

func TestSuccessorCacheSharing(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	c := core.CacheOf(m)
	if c != core.CacheOf(m) {
		t.Fatal("model did not share one cache across CacheOf calls")
	}
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cache != c {
		t.Fatal("explored graph not drawing from the model's shared cache")
	}
	after := c.Stats().Enumerations
	// A second pass over the same model re-enumerates nothing.
	if _, err := core.ExploreIDCtx(nil, m, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Enumerations != after {
		t.Errorf("second exploration enumerated %d extra states", st.Enumerations-after)
	}
	// The cached Successors agree with the raw function.
	x := m.Inits()[0]
	raw := c.Uncached().Successors(x)
	got := m.Successors(x)
	if len(raw) != len(got) {
		t.Fatalf("cached successors %d, raw %d", len(got), len(raw))
	}
	for i := range raw {
		if raw[i].Action != got[i].Action || raw[i].State.Key() != got[i].State.Key() {
			t.Fatalf("successor %d differs through the cache", i)
		}
	}
}

func TestIDGraphStructure(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	ig, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ig.Len() == 0 || ig.NumEdges() == 0 {
		t.Fatal("empty dense graph")
	}
	// Layers partition the nodes and agree with DepthOf.
	total := 0
	for d := 0; d <= 2; d++ {
		for _, u := range ig.Layer(d) {
			if int(ig.DepthOf[u]) != d {
				t.Fatalf("node %d in layer %d has DepthOf %d", u, d, ig.DepthOf[u])
			}
			total++
		}
	}
	if total != ig.Len() {
		t.Fatalf("layers cover %d of %d nodes", total, ig.Len())
	}
	// Every edge goes from its source's layer into the next one or an
	// earlier one: BFS records edges only for nodes above the bound.
	for u := range ig.States {
		_, to := ig.Out(uint32(u))
		if len(to) > 0 && int(ig.DepthOf[u]) >= ig.Depth {
			t.Fatalf("node %d at the depth bound has %d recorded edges", u, len(to))
		}
		for _, v := range to {
			if ig.DepthOf[v] > ig.DepthOf[u]+1 {
				t.Fatalf("edge %d -> %d skips a layer", u, v)
			}
		}
	}
}

func TestStatesAtDepthCached(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := g.StatesAtDepth(1)
	second := g.StatesAtDepth(1)
	if len(first) == 0 {
		t.Fatal("no states at depth 1")
	}
	if &first[0] != &second[0] {
		t.Error("StatesAtDepth rebuilt its bucket on the second call")
	}
	// Explored graphs serve the layer window in BFS discovery order:
	// exactly the Layer(1) nodes, in that order, with no copying.
	layer := g.Layer(1)
	if len(first) != len(layer) {
		t.Fatalf("depth-1 bucket has %d states, layer %d nodes", len(first), len(layer))
	}
	if &first[0] != &g.States[layer[0]] {
		t.Error("StatesAtDepth copied instead of sharing the States window")
	}
	for i, u := range layer {
		if first[i] != g.States[u] {
			t.Fatalf("bucket[%d] is not layer node %d", i, u)
		}
	}
	if g.StatesAtDepth(3) != nil || g.StatesAtDepth(-1) != nil {
		t.Fatal("out-of-range depth should yield nil")
	}
}
