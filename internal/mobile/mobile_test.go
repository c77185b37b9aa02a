package mobile_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/valence"
)

// TestLemma51SimilarityChain checks the proof skeleton of Lemma 5.1(iii):
// x(j,[0]) coincides for all j, and x(j,[k]) ~s x(j,[k+1]) because the two
// states differ only in the state of the k-th process (0-based: the process
// with id k is the one added to the omission set).
func TestLemma51SimilarityChain(t *testing.T) {
	const n = 3
	m := mobile.New(protocols.FloodSet{Rounds: 3}, n)
	x := m.Initial([]int{0, 1, 0})
	for j := 0; j < n; j++ {
		prev := m.Apply(x, j, 0)
		noop := m.Apply(x, 0, 0)
		if prev.Key() != noop.Key() {
			t.Errorf("x(%d,[0]) differs from x(0,[0])", j)
		}
		for k := 0; k < n; k++ {
			next := m.Apply(x, j, (uint64(1)<<uint(k+1))-1)
			if prev.Key() != next.Key() {
				if !core.AgreeModulo(prev, next, k) {
					t.Errorf("x(%d,[%d]) and x(%d,[%d]) do not agree modulo %d", j, k, j, k+1, k)
				}
				if _, ok := core.Similar(prev, next); !ok {
					t.Errorf("x(%d,[%d]) !~s x(%d,[%d])", j, k, j, k+1)
				}
			}
			prev = next
		}
	}
}

// TestS1LayerSimilarityConnected checks Lemma 5.1(iii) wholesale: every S1
// layer over every initial state is similarity connected, hence (with the
// valence oracle) valence connected.
func TestS1LayerSimilarityConnected(t *testing.T) {
	const n, rounds = 3, 2
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	o := valence.NewOracle(m)
	for _, x := range m.Inits() {
		r := valence.AnalyzeLayer(m, o, x, rounds)
		if !r.SimilarityConnected {
			t.Errorf("init %q: S1 layer has %d similarity components, want 1",
				x.Key(), r.SimilarityComponents)
		}
		if !r.ValenceConnected {
			t.Errorf("init %q: S1 layer not valence connected", x.Key())
		}
	}
}

// TestLemma36InitialStates checks Lemma 3.6: Con_0 is similarity connected,
// and (for a protocol attempting consensus) contains a bivalent state.
func TestLemma36InitialStates(t *testing.T) {
	const n, rounds = 3, 2
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	inits := m.Inits()
	if d, conn := valence.SetSDiameter(inits); !conn {
		t.Error("Con_0 is not similarity connected")
	} else if d > n {
		t.Errorf("Con_0 s-diameter = %d, want <= n = %d", d, n)
	}
	o := valence.NewOracle(m)
	bivalent := false
	for _, x := range inits {
		if o.Bivalent(x, rounds) {
			bivalent = true
			break
		}
	}
	if !bivalent {
		t.Error("no bivalent initial state found (Lemma 3.6)")
	}
	// The all-0 and all-1 initial states are univalent by validity.
	if v, ok := o.Univalent(m.Initial([]int{0, 0, 0}), rounds); !ok || v != 0 {
		t.Errorf("all-0 initial state: univalent = (%d,%v), want (0,true)", v, ok)
	}
	if v, ok := o.Univalent(m.Initial([]int{1, 1, 1}), rounds); !ok || v != 1 {
		t.Errorf("all-1 initial state: univalent = (%d,%v), want (1,true)", v, ok)
	}
}

// TestBivalentChainMobile is the constructive core of Corollary 5.2: the
// bivalent chain of Theorem 4.2 extends up to the protocol's decision
// round. While the protocol has not yet decided (FloodSet decides exactly
// at its round bound) Lemma 3.2 holds along the chain: no process has
// decided at a bivalent state, since M^mf displays no finite failure. At
// the decision round itself, FloodSet — like any protocol in M^mf — must
// then break one of the requirements; for this chain's final state the
// decisions that appear one layer later disagree.
func TestBivalentChainMobile(t *testing.T) {
	const n, rounds = 3, 3
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	o := valence.NewOracle(m)
	target := rounds - 1
	ch, err := valence.BivalentChain(m, o, valence.DecreasingHorizon(rounds, 1), target)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stuck != nil {
		t.Fatalf("chain stuck at depth %d: valence connectivity failed", ch.Reached)
	}
	if ch.Reached != target {
		t.Fatalf("chain reached %d, want %d", ch.Reached, target)
	}
	// Lemma 3.2: no process decided at any state of the chain.
	for d, x := range ch.Exec.States() {
		for i := 0; i < n; i++ {
			if _, ok := x.Decided(i); ok {
				t.Errorf("depth %d: process %d decided at a bivalent state (Lemma 3.2)", d, i)
			}
		}
	}
	// The final state is bivalent one layer before everyone decides: both
	// decision values occur among its one-layer extensions, i.e. FloodSet
	// breaks agreement right here. (Corollary 5.2: some requirement must
	// break; for FloodSet it is agreement.)
	last := ch.Exec.Last()
	if core.AllDecided(last) {
		t.Error("chain final state already decided; expected pre-decision bivalence")
	}
	var mask uint8
	for _, s := range m.Successors(last) {
		mask |= o.Valences(s.State, 0)
	}
	if mask != valence.V0|valence.V1 {
		t.Errorf("one-layer decisions from the final chain state = %02b, want both values", mask)
	}
}

// TestNoFiniteFailure checks that M^mf displays no finite failure: no
// process is failed at any reachable state.
func TestNoFiniteFailure(t *testing.T) {
	const n = 3
	m := mobile.New(protocols.FloodSet{Rounds: 2}, n)
	g, err := core.ExploreID(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range g.States {
		for i := 0; i < n; i++ {
			if x.FailedAt(i) {
				t.Fatalf("process %d failed at state %q", i, x.Key())
			}
		}
	}
	if err := g.CheckDeterminism(m); err != nil {
		t.Error(err)
	}
}

// TestS1IsSubmodelOfFull: every S1 layer state appears in the full M^mf
// layer — the executable content of "S1 is a layering of M^mf" at the
// one-layer level (S1 actions ARE model actions).
func TestS1IsSubmodelOfFull(t *testing.T) {
	const n = 3
	p := protocols.FullInfo{}
	sub := mobile.New(p, n)
	full := mobile.NewFull(p, n)
	x := sub.Initial([]int{0, 1, 1})
	fullStates := make(map[string]bool)
	for _, s := range full.Successors(x) {
		fullStates[s.State.Key()] = true
	}
	// |full layer| = 1 + n*(2^n - 1) labeled actions.
	if want := 1 + n*((1<<n)-1); len(full.Successors(x)) != want {
		t.Errorf("full layer has %d actions, want %d", len(full.Successors(x)), want)
	}
	for _, s := range sub.Successors(x) {
		if !fullStates[s.State.Key()] {
			t.Errorf("S1 state via %q not reachable in the full model", s.Action)
		}
	}
}

// TestFullModelRefutation: impossibility holds a fortiori in the full
// model (more adversary freedom).
func TestFullModelRefutation(t *testing.T) {
	m := mobile.NewFull(protocols.FloodSet{Rounds: 2}, 3)
	w, err := valence.Certify(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == valence.OK {
		t.Error("consensus certified in the full M^mf")
	}
}

func TestAccessors(t *testing.T) {
	p := protocols.FloodSet{Rounds: 2}
	m := mobile.New(p, 3)
	if m.N() != 3 || m.Protocol().Name() != p.Name() || m.Name() == "" {
		t.Error("accessor mismatch")
	}
	f := mobile.NewFull(p, 3)
	if f.N() != 3 || f.Name() == "" {
		t.Error("full-model accessor mismatch")
	}
	if f.Initial([]int{0, 1, 1}).Key() != m.Initial([]int{0, 1, 1}).Key() {
		t.Error("full model's initial states must match the submodel's")
	}
}
