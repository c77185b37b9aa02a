package shmem_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/shmem"
	"repro/internal/valence"
)

func newModel(n, phases int) *shmem.Model {
	return shmem.New(protocols.SMVote{Phases: phases}, n)
}

// TestActionJ0IndependentOfJ checks the paper's remark that x(j,0) is
// independent of j: all writes complete before all reads.
func TestActionJ0IndependentOfJ(t *testing.T) {
	const n = 3
	m := newModel(n, 4)
	x := m.Initial([]int{0, 1, 1})
	base := m.Apply(x, 0, 0)
	for j := 1; j < n; j++ {
		if got := m.Apply(x, j, 0); got.Key() != base.Key() {
			t.Errorf("x(%d,0) differs from x(0,0)", j)
		}
	}
}

// TestSynchronicSimilarityChain checks the Lemma 5.3 structure: x(j,k) and
// x(j,k+1) differ only in the local state of the boundary process, so they
// are similar; and consequently Y = {x(j,k)} is similarity connected.
func TestSynchronicSimilarityChain(t *testing.T) {
	const n = 3
	m := newModel(n, 4)
	x := m.Initial([]int{0, 1, 0})
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			a, b := m.Apply(x, j, k), m.Apply(x, j, k+1)
			if a.Key() == b.Key() {
				continue // boundary process k may be j itself
			}
			if !core.AgreeModulo(a, b, k) {
				t.Errorf("x(%d,%d) and x(%d,%d) do not agree modulo %d", j, k, j, k+1, k)
			}
			if _, ok := core.Similar(a, b); !ok {
				t.Errorf("x(%d,%d) !~s x(%d,%d)", j, k, j, k+1)
			}
		}
	}
}

// TestAbsentBridge checks the key identity in the proof of Lemma 5.3:
// y = x(j,n)(j,A) and y' = x(j,A)(j,0) agree modulo j, which yields
// x(j,n) ~v x(j,A).
func TestAbsentBridge(t *testing.T) {
	const n = 3
	m := newModel(n, 4)
	for a := 0; a < 1<<n; a++ {
		inputs := []int{a & 1, (a >> 1) & 1, (a >> 2) & 1}
		x := m.Initial(inputs)
		for j := 0; j < n; j++ {
			y := m.ApplyAbsent(m.Apply(x, j, n), j)
			yp := m.Apply(m.ApplyAbsent(x, j), j, 0)
			if !core.AgreeModulo(y, yp, j) {
				t.Errorf("inputs=%v j=%d: x(j,n)(j,A) and x(j,A)(j,0) do not agree modulo j", inputs, j)
			}
		}
	}
}

// TestLayerReport checks Lemma 5.3(iii) mechanically: every S^rw layer over
// every initial state is valence connected (for the SMVote protocol within
// its decision horizon), and the sequential part is similarity connected.
func TestLayerReport(t *testing.T) {
	const n, phases = 3, 2
	m := newModel(n, phases)
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
			t.Errorf("init %q: S^rw layer not valence connected", g.Keys[u])
		}
		if len(r.NullValentIdx) > 0 {
			t.Errorf("init %q: null-valent layer states (horizon too small?)", g.Keys[u])
		}
	}
}

// TestCertifySMVoteRefuted is Corollary 5.4: no protocol solves consensus
// 1-resiliently in M^rw, even in the synchronic submodel. SMVote with any
// phase bound must be refuted.
func TestCertifySMVoteRefuted(t *testing.T) {
	for _, phases := range []int{1, 2} {
		m := newModel(3, phases)
		w, err := valence.Certify(nil, m, phases, 2_000_000)
		if err != nil {
			t.Fatalf("phases=%d: %v", phases, err)
		}
		if w.Kind == valence.OK {
			t.Errorf("phases=%d: SMVote certified OK, contradicting Corollary 5.4", phases)
		}
	}
}

// TestRegistersAreEnvironment ensures the registers live in EnvKey and that
// an absent process's register and local are untouched.
func TestRegistersAreEnvironment(t *testing.T) {
	const n = 3
	m := newModel(n, 4)
	x := m.Initial([]int{1, 1, 1})
	y := m.ApplyAbsent(x, 2)
	if y.Local(2) != x.Local(2) {
		t.Error("absent process's local changed")
	}
	if y.Memory()[2] != "" {
		t.Error("absent process's register changed")
	}
	if y.EnvKey() == x.EnvKey() {
		t.Error("proper processes wrote but EnvKey did not change")
	}
}
