package asyncmp

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/valence"
)

// TestForeignStatesGetTheModelsIDs: a state whose records come from
// another model's table, or from none — built by newState, by ApplyOps, or
// by a second model instance's Initial — is keyed from its strings, so ID,
// core.WithInits and the valence field treat it as the model's own equal
// state, whichever of the two the cache sees first, under both layerings.
func TestForeignStatesGetTheModelsIDs(t *testing.T) {
	p := protocols.MPFlood{Phases: 3}
	in := []int{0, 1, 1}
	for _, c := range []struct {
		name  string
		mk    func() *layering
		steps []string // two actions, so histories carry backlogs
	}{
		{"Sper", func() *layering { return &New(p, 3).layering }, []string{"[1,0]", "[2,{0,1}]"}},
		{"Ssync", func() *layering { return &NewSynchronic(p, 3).layering }, []string{"(2,A)", "(0,1)"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			own := c.mk().Initial(in)
			step := own
			for _, label := range c.steps {
				var err error
				if step, err = c.mk().ApplyOps(step, opsOf(t, 3, label)); err != nil {
					t.Fatal(err)
				}
			}
			plocal := make([]string, 3)
			hist := make([][][]string, 3)
			consumed := make([][]int, 3)
			for i := range plocal {
				plocal[i] = own.ProtocolState(i)
				hist[i], consumed[i] = make([][]string, 3), make([]int, 3)
			}
			for _, f := range []struct {
				what string
				x    *State
			}{
				{"newState", newState(p, hist, consumed, plocal, in)},
				{"another Initial", c.mk().Initial(in)},
				{"ApplyOps steps", step},
			} {
				for _, foreignFirst := range []bool{false, true} {
					l := c.mk()
					mine := l.Initial(in)
					if f.what == "ApplyOps steps" {
						for _, label := range c.steps {
							mine = ownSuccessor(t, l, mine, label)
						}
					}
					if f.x.Key() != mine.Key() {
						t.Fatalf("%s: key %q, model's own %q", f.what, f.x.Key(), mine.Key())
					}
					var idX, idMine uint32
					if foreignFirst {
						idX, idMine = l.ID(f.x), l.ID(mine)
					} else {
						idMine, idX = l.ID(mine), l.ID(f.x)
					}
					if idX != idMine {
						t.Fatalf("%s (foreign first %v): id %d, model's own state %d", f.what, foreignFirst, idX, idMine)
					}
					gx := explore(t, core.WithInits(l, []core.State{f.x}))
					gm := explore(t, core.WithInits(c.mk(), []core.State{mine}))
					if !slices.Equal(gx.Keys, gm.Keys) || !slices.Equal(gx.EdgeTo, gm.EdgeTo) || !slices.Equal(edgeLabels(gx), edgeLabels(gm)) {
						t.Fatalf("%s (foreign first %v): graph differs from the own state's", f.what, foreignFirst)
					}
					fx, err := valence.NewFieldCtx(nil, gx)
					if err != nil {
						t.Fatal(err)
					}
					fm, err := valence.NewFieldCtx(nil, gm)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := fx.Masks(), fm.Masks(); !slices.Equal(got, want) {
						t.Fatalf("%s: field masks %v, own state %v", f.what, got, want)
					}
				}
			}
		})
	}
}

// explore explores m to depth 2.
func explore(t *testing.T, m core.Model) *core.IDGraph {
	t.Helper()
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// ownSuccessor returns x's successor under action in l's cache.
func ownSuccessor(t *testing.T, l *layering, x *State, action string) *State {
	t.Helper()
	for _, s := range l.Successors(x) {
		if s.Action == action {
			return s.State.(*State)
		}
	}
	t.Fatalf("action %s not enumerated", action)
	return nil
}

// TestBuildsOnlyMisses: a serial exploration of each coldbench
// async_nongraded model assembles one State per new state and none per
// duplicate successor: states − inits in all.
func TestBuildsOnlyMisses(t *testing.T) {
	for _, c := range []struct {
		name  string
		l     *layering
		depth int
	}{
		{"Sper MPFlood(3) n=3", &New(protocols.MPFlood{Phases: 3}, 3).layering, 3},
		{"Ssync MPFlood(4) n=3", &NewSynchronic(protocols.MPFlood{Phases: 4}, 3).layering, 4},
	} {
		g, err := core.ExploreIDCtx(nil, c.l, c.depth, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		tab := c.l.tab
		if got, want := tab.built.Load(), int64(g.Len()-len(g.Inits)); got != want {
			t.Errorf("%s: %d States built, want %d (states − inits)", c.name, got, want)
		}
		locals, msgs := map[uint32]bool{}, map[uint32]bool{}
		for id := uint32(0); id < tab.procs.next.Load(); id++ {
			locals[tab.procs.at(id).lid] = true
		}
		for id := uint32(0); id < tab.hists.next.Load(); id++ {
			for _, m := range tab.hists.at(id).ids {
				msgs[m] = true
			}
		}
		t.Logf("%s: %d states, %d edges; %d local states, %d messages, %d histories, %d environments, %d process records",
			c.name, g.Len(), g.NumEdges(), len(locals), len(msgs), tab.hists.next.Load(), tab.envs.next.Load(), tab.procs.next.Load())
	}
}

// edgeLabels renders g's edge labels, edge by edge: two graphs over
// different caches agree on labels exactly when these do.
func edgeLabels(g *core.IDGraph) []string {
	out := make([]string, g.NumEdges())
	for e := range out {
		out[e] = g.Action(e)
	}
	return out
}
