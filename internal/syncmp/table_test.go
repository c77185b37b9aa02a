package syncmp_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// foreignCase is a model with a way to build its initial state elsewhere
// and to apply one of its actions outside it.
type foreignCase struct {
	name  string
	mk    func() core.Model
	init  func(m core.Model, in []int) *syncmp.State
	apply func(p proto.SyncProtocol, x *syncmp.State) *syncmp.State
	track bool
}

// TestForeignStatesGetTheModelsIDs: a state whose local ids come from
// another table, or that has none — built by syncmp.NewState, by
// ApplyAction, or by a second model instance's Initial — is keyed from its
// strings, so ID, core.WithInits and the valence field treat it as the
// model's own equal state, whichever of the two the cache sees first.
func TestForeignStatesGetTheModelsIDs(t *testing.T) {
	p := protocols.FloodSet{Rounds: 2}
	in := []int{0, 1, 1, 0}
	cases := []foreignCase{
		{
			name: "St",
			mk:   func() core.Model { return syncmp.NewSt(p, 4, 2) },
			init: func(m core.Model, in []int) *syncmp.State { return m.(*syncmp.Model).Initial(in) },
			apply: func(p proto.SyncProtocol, x *syncmp.State) *syncmp.State {
				return syncmp.ApplyAction(p, x, 1, 0b0011, true, true)
			},
			track: true,
		},
		{
			name: "mobile/S1",
			mk:   func() core.Model { return mobile.New(p, 4) },
			init: func(m core.Model, in []int) *syncmp.State { return m.(*mobile.Model).Initial(in) },
			apply: func(p proto.SyncProtocol, x *syncmp.State) *syncmp.State {
				return syncmp.ApplyAction(p, x, 1, 0b0011, false, false)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			own := tc.init(tc.mk(), in)
			step := tc.apply(p, own)
			locals := make([]string, own.N())
			for i := range locals {
				locals[i] = own.Local(i)
			}
			for _, f := range []struct {
				what string
				x    *syncmp.State
			}{
				{"NewState", syncmp.NewState(p, 0, locals, 0, tc.track, in)},
				{"another Initial", tc.init(tc.mk(), in)},
				{"ApplyAction step", step},
			} {
				what, x := f.what, f.x
				for _, foreignFirst := range []bool{false, true} {
					m := tc.mk()
					c := core.CacheOf(m)
					mine := tc.init(m, in)
					if what == "ApplyAction step" {
						mine = ownSuccessor(t, m, mine, "(1,[2])")
					}
					if x.Key() != mine.Key() {
						t.Fatalf("%s: key %q, model's own %q", what, x.Key(), mine.Key())
					}
					var idX, idMine uint32
					if foreignFirst {
						idX, idMine = c.ID(x), c.ID(mine)
					} else {
						idMine, idX = c.ID(mine), c.ID(x)
					}
					if idX != idMine {
						t.Fatalf("%s (foreign first %v): id %d, model's own state %d", what, foreignFirst, idX, idMine)
					}
					gx, err := core.ExploreIDCtx(nil, core.WithInits(m, []core.State{x}), 2, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					gm, err := core.ExploreIDCtx(nil, core.WithInits(tc.mk(), []core.State{mine}), 2, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gx.Keys, gm.Keys) || !slices.Equal(gx.EdgeTo, gm.EdgeTo) || !slices.Equal(gx.EdgeAction, gm.EdgeAction) {
						t.Fatalf("%s (foreign first %v): graph differs from the own state's", what, foreignFirst)
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
						t.Fatalf("%s: field masks %v, own state %v", what, got, want)
					}
				}
			}
		})
	}
}

// ownSuccessor returns x's successor under action in m's cache.
func ownSuccessor(t *testing.T, m core.Model, x core.State, action string) *syncmp.State {
	t.Helper()
	for _, s := range m.Successors(x) {
		if s.Action == action {
			return s.State.(*syncmp.State)
		}
	}
	t.Fatalf("action %s not enumerated", action)
	return nil
}
