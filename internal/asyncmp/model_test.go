package asyncmp_test

import (
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/valence"
)

func newModel(n, phases int) *asyncmp.Model {
	return asyncmp.New(protocols.MPFlood{Phases: phases}, n)
}

// TestSuccessorCount checks |S^per(x)| = n! + n! + (n-1)*n!/2 labeled
// actions (full permutations, drop-one sequences, concurrent-pair actions).
func TestSuccessorCount(t *testing.T) {
	for n := 2; n <= 4; n++ {
		m := newModel(n, 2)
		x := m.Initial(make([]int, n))
		fact := 1
		for i := 2; i <= n; i++ {
			fact *= i
		}
		want := fact + fact + (n-1)*fact/2
		if got := len(m.Successors(x)); got != want {
			t.Errorf("n=%d: |S^per(x)| = %d, want %d", n, got, want)
		}
	}
}

// TestTranspositionSimilarityChain checks the paper's chain
//
//	x[..,pk,pk+1,..] ~s x[..,{pk,pk+1},..] ~s x[..,pk+1,pk,..]
//
// for every adjacent position of every permutation (full-information
// protocol: the strongest instance).
func TestTranspositionSimilarityChain(t *testing.T) {
	const n = 3
	m := asyncmp.New(protocols.MPFullInfo{}, n)
	x := m.Initial([]int{0, 1, 1})
	perms := [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}, {1, 2, 0}, {0, 2, 1}, {2, 0, 1}}
	for _, p := range perms {
		for k := 0; k+1 < n; k++ {
			seq := m.Sequential(x, p)
			conc := m.WithPair(x, p, k)
			swapped := append([]int(nil), p...)
			swapped[k], swapped[k+1] = swapped[k+1], swapped[k]
			seq2 := m.Sequential(x, swapped)

			if !core.AgreeModulo(seq, conc, p[k]) {
				t.Errorf("perm %v k=%d: sequential and concurrent do not agree modulo %d", p, k, p[k])
			}
			if _, ok := core.Similar(seq, conc); !ok {
				t.Errorf("perm %v k=%d: sequential !~s concurrent", p, k)
			}
			if !core.AgreeModulo(conc, seq2, p[k+1]) {
				t.Errorf("perm %v k=%d: concurrent and transposed do not agree modulo %d", p, k, p[k+1])
			}
			if _, ok := core.Similar(conc, seq2); !ok {
				t.Errorf("perm %v k=%d: concurrent !~s transposed", p, k)
			}
		}
	}
}

// TestDiamondIdentity checks the paper's minimal FLP diamond: the two
// executions
//
//	x[p1,...,pn-1,pn][p1,...,pn-1]  and  x[p1,...,pn-1][pn,p1,...,pn-1]
//
// end in the *same* state, because the same sequence of basic actions
// happens in both.
func TestDiamondIdentity(t *testing.T) {
	const n = 3
	m := asyncmp.New(protocols.MPFullInfo{}, n)
	for a := 0; a < 1<<n; a++ {
		x := m.Initial([]int{a & 1, (a >> 1) & 1, (a >> 2) & 1})
		full := []int{0, 1, 2}
		head := []int{0, 1}
		rot := []int{2, 0, 1}
		y := m.Sequential(m.Sequential(x, full), head)
		yp := m.Sequential(m.Sequential(x, head), rot)
		if y.Key() != yp.Key() {
			t.Errorf("inputs %03b: diamond states differ", a)
		}
	}
}

// TestDiamondNotSimilar checks the paper's observation that the diamond's
// top states x[p1..pn] and x[p1..pn-1] are NOT similar: they differ both in
// pn's local state and in the environment (pn's messages were sent in one
// and not the other). This is exactly why valence reasoning is needed.
func TestDiamondNotSimilar(t *testing.T) {
	const n = 3
	m := asyncmp.New(protocols.MPFullInfo{}, n)
	x := m.Initial([]int{0, 1, 1})
	full := m.Sequential(x, []int{0, 1, 2})
	head := m.Sequential(x, []int{0, 1})
	if full.EnvKey() == head.EnvKey() {
		t.Error("environments should differ (pn's sends)")
	}
	if _, ok := core.Similar(full, head); ok {
		t.Error("x[p1..pn] ~s x[p1..pn-1] should NOT hold")
	}
}

// fieldOf explores m to depth and sweeps its valence field: a node at
// depth d holds its valence within depth-d layers.
func fieldOf(t *testing.T, m core.Model, depth int) *valence.Field {
	t.Helper()
	g, err := core.ExploreIDCtx(nil, m, depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSharedValenceViaCommonSuccessor checks x[p1..pn] ~v x[p1..pn-1]
// (Definition 3.1: some value is a valence of both) on the valence field,
// as the diamond argument predicts.
func TestSharedValenceViaCommonSuccessor(t *testing.T) {
	const n, phases = 3, 2
	m := newModel(n, phases)
	f := fieldOf(t, m, phases+1)
	x := m.Initial([]int{0, 1, 1})
	full, ok1 := f.MaskOf(m.Sequential(x, []int{0, 1, 2}))
	head, ok2 := f.MaskOf(m.Sequential(x, []int{0, 1}))
	if !ok1 || !ok2 {
		t.Fatal("diamond tops not reached in one layer")
	}
	if full&head == 0 {
		t.Error("x[p1..pn] and x[p1..pn-1] share no valence")
	}
}

// TestLayerValenceConnected checks that every S^per layer over the initial
// states is valence connected for MPFlood within its decision horizon.
func TestLayerValenceConnected(t *testing.T) {
	const n, phases = 3, 2
	m := newModel(n, phases)
	f := fieldOf(t, m, phases+1)
	for _, u := range f.Graph().Inits {
		if r := f.AnalyzeNode(u); !r.ValenceConnected {
			t.Errorf("init %q: S^per layer not valence connected", f.Graph().Keys[u])
		}
	}
}

// TestCertifyMPFloodRefuted: consensus is impossible 1-resiliently in
// asynchronous message passing (the paper's message-passing analogue of
// Corollary 5.4); MPFlood with any phase bound must be refuted.
func TestCertifyMPFloodRefuted(t *testing.T) {
	for _, phases := range []int{1, 2} {
		m := newModel(3, phases)
		w, err := valence.Certify(nil, m, phases, 4_000_000)
		if err != nil {
			t.Fatalf("phases=%d: %v", phases, err)
		}
		if w.Kind == valence.OK {
			t.Errorf("phases=%d: MPFlood certified OK, contradicting FLP", phases)
		}
	}
}

// TestOutstandingDelivery checks channel bookkeeping: messages sent in a
// phase are outstanding for the receiver until its next phase.
func TestOutstandingDelivery(t *testing.T) {
	const n = 3
	m := newModel(n, 5)
	x := m.Initial([]int{0, 1, 1})
	// Only process 0 and 1 move; their messages to 2 pile up.
	y := m.Sequential(x, []int{0, 1})
	out := y.Outstanding(2)
	if len(out[0]) != 1 || len(out[1]) != 1 {
		t.Fatalf("process 2 should have one outstanding message from each of 0 and 1, got %v", out)
	}
	// After 2 moves, nothing is outstanding for it.
	z := m.Sequential(y, []int{2})
	for j, msgs := range z.Outstanding(2) {
		if len(msgs) != 0 {
			t.Errorf("after its phase, process 2 still has %d outstanding from %d", len(msgs), j)
		}
	}
}
