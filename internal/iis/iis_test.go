package iis_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/iis"
	"repro/internal/protocols"
	"repro/internal/valence"
)

// fubini[n] is the number of ordered partitions of an n-set.
var fubini = map[int]int{1: 1, 2: 3, 3: 13, 4: 75}

func TestOrderedPartitionCount(t *testing.T) {
	for n, want := range fubini {
		if got := len(iis.OrderedPartitions(n)); got != want {
			t.Errorf("OrderedPartitions(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOrderedPartitionsValid(t *testing.T) {
	const n = 3
	seen := make(map[string]bool)
	for _, p := range iis.OrderedPartitions(n) {
		label := iis.PartitionLabel(p)
		if seen[label] {
			t.Errorf("duplicate partition %s", label)
		}
		seen[label] = true
		covered := make(map[int]bool)
		for _, block := range p {
			if len(block) == 0 {
				t.Errorf("%s: empty block", label)
			}
			for _, i := range block {
				if covered[i] {
					t.Errorf("%s: process %d in two blocks", label, i)
				}
				covered[i] = true
			}
		}
		if len(covered) != n {
			t.Errorf("%s: covers %d of %d processes", label, len(covered), n)
		}
	}
}

// TestBlockVisibility pins down immediate-snapshot semantics: members of a
// block see each other and all earlier blocks; earlier blocks do not see
// later ones.
func TestBlockVisibility(t *testing.T) {
	const n = 3
	m := iis.New(protocols.SMFullInfo{}, n)
	x := m.Initial([]int{0, 1, 1})
	// Partition [{1},{0,2}]: 1 sees only itself; 0 and 2 see everyone.
	y := m.Apply(x, [][]int{{1}, {0, 2}})
	// Partition [{1},{0},{2}]: 1 itself; 0 sees {0,1}; 2 sees all.
	z := m.Apply(x, [][]int{{1}, {0}, {2}})
	if y.Local(1) != z.Local(1) {
		t.Error("process 1's view must not depend on later blocks")
	}
	if y.Local(0) == z.Local(0) {
		t.Error("process 0 must see process 2's write when they share a block")
	}
	if y.Local(2) != z.Local(2) {
		t.Error("process 2 sees everyone in both partitions")
	}
}

// TestOneRoundSubdivisionConnected is the standard chromatic-subdivision
// connectivity, through the paper's similarity lens: the one-round IIS
// layer is similarity connected (and has the Fubini number of distinct
// states under full information).
func TestOneRoundSubdivisionConnected(t *testing.T) {
	const n = 3
	m := iis.New(protocols.SMFullInfo{}, n)
	for _, x := range m.Inits() {
		states, _ := valence.Layer(m, x)
		if len(states) != fubini[n] {
			t.Errorf("distinct one-round states = %d, want %d", len(states), fubini[n])
		}
		g := valence.SimilarityGraph(states)
		if !g.Connected() {
			t.Error("one-round IIS layer not similarity connected")
		}
	}
}

// TestConsensusRefutedInIIS: consensus is wait-free unsolvable; the
// certifier must refute the flooding candidate in the IIS model too.
func TestConsensusRefutedInIIS(t *testing.T) {
	for _, phases := range []int{1, 2} {
		m := iis.New(protocols.SMVote{Phases: phases}, 3)
		w, err := valence.Certify(nil, m, phases, 4_000_000)
		if err != nil {
			t.Fatalf("phases=%d: %v", phases, err)
		}
		if w.Kind == valence.OK {
			t.Errorf("phases=%d: consensus certified in IIS", phases)
		}
	}
}

// TestIISLayerValenceConnected: every IIS layer over the initial states is
// valence connected for SMVote within its horizon — the Lemma 4.1
// precondition in this model.
func TestIISLayerValenceConnected(t *testing.T) {
	const n, phases = 3, 2
	m := iis.New(protocols.SMVote{Phases: phases}, n)
	g, err := core.ExploreIDCtx(nil, m, phases+1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range g.Inits {
		r := f.AnalyzeNode(u)
		if !r.ValenceConnected {
			t.Errorf("init %q: IIS layer not valence connected", g.Keys[u])
		}
	}
}

// TestBivalentChainIIS: the Theorem 4.2 chain runs in IIS as well.
func TestBivalentChainIIS(t *testing.T) {
	const n, phases = 3, 3
	m := iis.New(protocols.SMVote{Phases: phases}, n)
	g, err := core.ExploreIDCtx(nil, m, phases, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.BivalentChain(phases - 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stuck != nil || ch.Reached != phases-1 {
		t.Fatalf("chain reached %d of %d (stuck=%v)", ch.Reached, phases-1, ch.Stuck != nil)
	}
	for _, x := range ch.Exec.States() {
		for i := 0; i < n; i++ {
			if _, ok := x.Decided(i); ok {
				t.Error("decision at a bivalent state (Lemma 3.2; IIS displays no finite failure)")
			}
		}
	}
}

// TestNoEnvironmentBeyondRound: iterated memories are never re-read, so
// states with equal locals and rounds are equal outright.
func TestNoEnvironmentBeyondRound(t *testing.T) {
	const n = 3
	m := iis.New(protocols.SMVote{Phases: 2}, n)
	x := m.Initial([]int{0, 1, 1})
	a := m.Apply(x, [][]int{{0, 1, 2}})
	b := m.Apply(x, [][]int{{0, 1, 2}})
	if a.Key() != b.Key() {
		t.Error("identical applications differ")
	}
	var got core.State = a
	if got.EnvKey() != b.EnvKey() {
		t.Error("EnvKey differs")
	}
}

// TestTwoSetProtocolFailsWaitFree contrasts resilience regimes on the same
// task and protocol: one round of min-flooding solves 2-set agreement
// 1-resiliently (experiment E10, in M^mf), but in the wait-free IIS model
// an ordered partition can give three processes three nested views and
// hence three distinct minima — the protocol is refuted. (Task-level
// wait-free impossibility of 2-set agreement is the Herlihy–Shavit /
// Borowsky–Gafni / Saks–Zaharoglou theorem, beyond this paper's 1-resilient
// scope; here we measure the protocol-level failure.)
func TestTwoSetProtocolFailsWaitFree(t *testing.T) {
	const n = 3
	p := protocols.SMVote{Phases: 1}
	m := iis.New(p, n)
	// Ternary inputs decreasing by id: under the nested-view partition
	// [{0},{1},{2}], process 0 sees only its 2, process 1 sees {1,2}, and
	// process 2 sees everything — minima 2, 1, 0.
	x := m.Initial([]int{2, 1, 0})
	y := m.Apply(x, [][]int{{0}, {1}, {2}})
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		v, ok := y.Decided(i)
		if !ok {
			t.Fatalf("process %d undecided after its phase", i)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("distinct decisions = %d, want 3 (the 2-set violation)", len(seen))
	}
}
