package knowledge_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/knowledge"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// statesAtRound explores the S^t model and returns the states first
// reached at the given round.
func statesAtRound(t *testing.T, m core.Model, round int) []core.State {
	t.Helper()
	g, err := core.ExploreIDCtx(nil, m, round, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g.StatesAtDepth(round)
}

// newClasses partitions states, failing the test on an error.
func newClasses(t *testing.T, states []core.State) *knowledge.Classes {
	t.Helper()
	c, err := knowledge.NewClasses(nil, states)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDecisionImpliesCommonKnowledge is the Dwork–Moses connection,
// executable: at FloodSet(t+1)'s decision round, each state's decided
// value is common knowledge among the non-failed processes — every state
// in its common-knowledge class carries the same decision.
func TestDecisionImpliesCommonKnowledge(t *testing.T) {
	const n, tt = 3, 1
	rounds := tt + 1
	m := syncmp.NewSt(protocols.FloodSet{Rounds: rounds}, n, tt)
	states := statesAtRound(t, m, rounds)
	classes := newClasses(t, states)
	for _, x := range states {
		v := decidedValue(x)
		if v == core.Undecided {
			t.Fatalf("undecided state at the decision round")
		}
		if !classes.CommonKnowledge(x.Key(), knowledge.DecidedValueFact(v)) {
			t.Errorf("decision %d not common knowledge at %s", v, x.Key())
		}
	}
}

// TestNoCommonKnowledgeBeforeDecision: with t=2 (n=4), bivalent states
// persist through round t-1 = 1, and at a bivalent state neither future
// value is common knowledge — the state's CK class reaches both valences.
func TestNoCommonKnowledgeBeforeDecision(t *testing.T) {
	const n, tt = 4, 2
	rounds := tt + 1
	m := syncmp.NewSt(protocols.FloodSet{Rounds: rounds}, n, tt)
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	const round = 1 // = t-1: the last round with bivalent states
	states := g.StatesAtDepth(round)
	classes := newClasses(t, states)
	mask := func(key string) uint8 {
		u, _ := g.NodeByKey(key)
		return f.Mask(u)
	}
	checkedBivalent := 0
	for _, x := range states {
		if mask(x.Key()) != valence.V0|valence.V1 {
			continue
		}
		checkedBivalent++
		both := uint8(0)
		for _, key := range classes.Class(x.Key()) {
			both |= mask(key)
		}
		if both != valence.V0|valence.V1 {
			t.Errorf("bivalent state's CK class reaches only valences %02b", both)
		}
	}
	if checkedBivalent == 0 {
		t.Fatal("no bivalent states at round t-1; Lemma 6.1 says they exist")
	}
}

// TestClassesBasics: class structure sanity on the initial states — the
// initial Con_0 is one big class (it is similarity connected and everyone
// is non-failed).
func TestClassesBasics(t *testing.T) {
	const n, tt = 3, 1
	m := syncmp.NewSt(protocols.FloodSet{Rounds: tt + 1}, n, tt)
	inits := m.Inits()
	classes := newClasses(t, inits)
	if classes.Count() != 1 {
		t.Errorf("Con_0 splits into %d CK classes, want 1", classes.Count())
	}
	if got := classes.Class(inits[0].Key()); len(got) != len(inits) {
		t.Errorf("class size %d, want %d", len(got), len(inits))
	}
	if classes.SameClass("nope", inits[0].Key()) {
		t.Error("unknown key reported in a class")
	}
	if classes.CommonKnowledge("nope", func(core.State) bool { return true }) {
		t.Error("unknown key has common knowledge")
	}
	// Nothing value-specific is common knowledge initially.
	if classes.CommonKnowledge(inits[0].Key(), knowledge.DecidedValueFact(0)) {
		t.Error("a decision is common knowledge before the run starts")
	}
}

// TestBucketedClassesMatchQuadratic is the differential test for the
// bucketed NewClasses: on every layer of the t-resilient FloodSet graph,
// the bucketed partition must equal the all-pairs one — same class count
// and the same SameClass verdict for every pair.
func TestBucketedClassesMatchQuadratic(t *testing.T) {
	const n, tt = 4, 2
	m := syncmp.NewSt(protocols.FloodSet{Rounds: tt + 1}, n, tt)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= g.Depth; d++ {
		layer := g.Layer(d)
		states := make([]core.State, len(layer))
		for i, u := range layer {
			states[i] = g.States[u]
		}
		fast, err := knowledge.NewClassesLayer(nil, g, d)
		if err != nil {
			t.Fatal(err)
		}
		slow := quadraticClasses(states)
		if fast.Count() != slow.count() {
			t.Fatalf("depth %d: %d classes != %d (quadratic)", d, fast.Count(), slow.count())
		}
		for a := 0; a < len(states); a++ {
			for b := a + 1; b < len(states); b++ {
				want := slow.connected(a, b)
				got := fast.SameClass(states[a].Key(), states[b].Key())
				if got != want {
					t.Fatalf("depth %d: SameClass(%d,%d) = %v, want %v", d, a, b, got, want)
				}
			}
		}
	}
}

// quadraticClasses is the original all-pairs union kept as the reference.
type quadRef struct {
	parent []int
}

func quadraticClasses(states []core.State) *quadRef {
	r := &quadRef{parent: make([]int, len(states))}
	for i := range r.parent {
		r.parent[i] = i
	}
	for a := 0; a < len(states); a++ {
		for b := a + 1; b < len(states); b++ {
			if indistinguishableToSomeoneRef(states[a], states[b]) {
				r.union(a, b)
			}
		}
	}
	return r
}

func indistinguishableToSomeoneRef(x, y core.State) bool {
	if x.N() != y.N() {
		return false
	}
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) || y.FailedAt(i) {
			continue
		}
		if x.Local(i) == y.Local(i) {
			return true
		}
	}
	return false
}

func (r *quadRef) find(a int) int {
	for r.parent[a] != a {
		r.parent[a] = r.parent[r.parent[a]]
		a = r.parent[a]
	}
	return a
}
func (r *quadRef) union(a, b int)          { r.parent[r.find(a)] = r.find(b) }
func (r *quadRef) connected(a, b int) bool { return r.find(a) == r.find(b) }
func (r *quadRef) count() int {
	c := 0
	for i := range r.parent {
		if r.find(i) == i {
			c++
		}
	}
	return c
}

// TestClassValenceSweepsField runs the CK-class analysis off the valence
// field: on the last bivalent round of FloodSet (t=2), every bivalent
// state's class valence is both bits — TestNoCommonKnowledgeBeforeDecision
// through ClassValence instead of per-class mask unions.
func TestClassValenceSweepsField(t *testing.T) {
	const n, tt = 4, 2
	rounds := tt + 1
	m := syncmp.NewSt(protocols.FloodSet{Rounds: rounds}, n, tt)
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	const round = 1 // = t-1: the last round with bivalent states
	classes, err := knowledge.NewClassesLayer(nil, g, round)
	if err != nil {
		t.Fatal(err)
	}
	var masks []uint8
	for _, u := range g.Layer(round) {
		masks = append(masks, f.Mask(u))
	}
	classValence := classes.ClassValence(masks)
	checkedBivalent := 0
	for i, u := range g.Layer(round) {
		if !f.Bivalent(u) {
			continue
		}
		checkedBivalent++
		if classValence[i] != valence.V0|valence.V1 {
			t.Errorf("bivalent state's CK class reaches only valences %02b", classValence[i])
		}
	}
	if checkedBivalent == 0 {
		t.Fatal("no bivalent states at round t-1; Lemma 6.1 says they exist")
	}
}

func decidedValue(x core.State) int {
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		if v, ok := x.Decided(i); ok {
			return v
		}
	}
	return core.Undecided
}
