package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

func TestExploreDepthAndCounts(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 2}
	m := mobile.New(p, n)
	g, err := core.ExploreID(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Inits); got != 1<<n {
		t.Errorf("inits = %d, want %d", got, 1<<n)
	}
	if got := len(g.StatesAtDepth(0)); got != 1<<n {
		t.Errorf("states at depth 0 = %d, want %d", got, 1<<n)
	}
	// Every depth-0 state has recorded edges; deepest states have none.
	for _, u := range g.Inits {
		if _, to := g.Out(u); len(to) == 0 {
			t.Errorf("initial state %q has no recorded edges", g.Keys[u])
		}
	}
	for _, u := range g.Layer(2) {
		if _, to := g.Out(u); len(to) != 0 {
			t.Error("frontier state has recorded edges")
		}
	}
	if err := g.CheckDeterminism(m); err != nil {
		t.Error(err)
	}
}

func TestExploreBudget(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 3}
	m := mobile.New(p, n)
	g, err := core.ExploreID(m, 3, 10)
	if !errors.Is(err, core.ErrNodeBudget) {
		t.Errorf("err = %v, want ErrNodeBudget", err)
	}
	// The partial graph explored so far is returned alongside the error.
	if g == nil || g.Len() != 10 {
		t.Fatalf("partial graph = %v, want 10 nodes", g)
	}
	if len(g.Inits) != 1<<n {
		t.Errorf("partial graph lost inits: %d", len(g.Inits))
	}
}

func TestExecutionAccessors(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewSt(p, n, 1)
	init := m.Initial([]int{0, 1, 1})
	e := &core.Execution{Init: init}
	if e.Len() != 0 || e.Last() != init {
		t.Error("empty execution accessors wrong")
	}
	succs := m.Successors(init)
	e2 := e.Extend(succs[0].Action, succs[0].State)
	if e.Len() != 0 {
		t.Error("Extend mutated the receiver")
	}
	if e2.Len() != 1 || e2.Last().Key() != succs[0].State.Key() {
		t.Error("Extend result wrong")
	}
	if got := e2.States(); len(got) != 2 || got[0] != init {
		t.Errorf("States() = %d entries", len(got))
	}
	if got := e2.Actions(); len(got) != 1 || got[0] != succs[0].Action {
		t.Errorf("Actions() = %v", got)
	}
}

func TestDecidedValuesAndHelpers(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: 1}
	m := syncmp.NewSt(p, n, tt)
	x := m.Initial([]int{0, 1, 1})
	if core.DecidedValues(x) != 0 {
		t.Error("initial state has decisions")
	}
	if core.AllDecided(x) {
		t.Error("initial state all-decided")
	}
	y := syncmp.ApplyAction(p, x, 0, syncmp.OmitMask(n), true, true)
	// Non-failed 1 and 2 decided 1; failed 0 decided 0 — excluded.
	if mask := core.DecidedValues(y); mask != 0b10 {
		t.Errorf("DecidedValues = %02b, want 10", mask)
	}
	if !core.AllDecided(y) {
		t.Error("all non-failed should have decided")
	}
	if core.FailedCount(y) != 1 {
		t.Errorf("FailedCount = %d, want 1", core.FailedCount(y))
	}
}

func TestSimilarRequiresEnvEquality(t *testing.T) {
	const n = 3
	p := protocols.FullInfo{}
	// Same locals, different environment (failed sets).
	locals := []string{"a", "b", "c"}
	x := syncmp.NewState(p, 1, locals, 0b001, true, nil)
	y := syncmp.NewState(p, 1, locals, 0b010, true, nil)
	if _, ok := core.Similar(x, y); ok {
		t.Error("states with different environments reported similar")
	}
	if core.AgreeModulo(x, y, 0) {
		t.Error("AgreeModulo ignored the environment")
	}
}

func TestSimilarRequiresNonFailedWitness(t *testing.T) {
	const n = 2
	p := protocols.FullInfo{}
	// n=2: states differing in process 0 with process 1 failed in both —
	// no non-failed witness i != j exists.
	x := syncmp.NewState(p, 1, []string{"a", "b"}, 0b10, true, nil)
	y := syncmp.NewState(p, 1, []string{"a2", "b"}, 0b10, true, nil)
	if _, ok := core.Similar(x, y); ok {
		t.Error("similar without a non-failed witness")
	}
	// With nobody failed it is similar (witness process 1).
	x2 := syncmp.NewState(p, 1, []string{"a", "b"}, 0, true, nil)
	y2 := syncmp.NewState(p, 1, []string{"a2", "b"}, 0, true, nil)
	if j, ok := core.Similar(x2, y2); !ok || j != 0 {
		t.Errorf("Similar = (%d,%v), want (0,true)", j, ok)
	}
}

func TestSuccessorFuncAdapter(t *testing.T) {
	called := 0
	var f core.SuccessorFunc = func(x core.State) []core.Succ {
		called++
		return nil
	}
	f.Successors(nil)
	if called != 1 {
		t.Error("adapter did not delegate")
	}
}
