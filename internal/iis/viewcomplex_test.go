package iis_test

import (
	"testing"

	"repro/internal/iis"
	"repro/internal/protocols"
	"repro/internal/shmem"
)

// TestViewComplexIsChromaticSubdivision checks the one-round full-
// information view complex against the known combinatorics of the standard
// chromatic subdivision of the triangle (n=3): 13 top simplexes, a
// pseudomanifold, 1-thick connected.
func TestViewComplexIsChromaticSubdivision(t *testing.T) {
	const n = 3
	m := iis.New(protocols.SMFullInfo{}, n)
	x := m.Initial([]int{0, 1, 1})
	st := m.Stats(x)
	if st.TopSimplexes != 13 {
		t.Errorf("top simplexes = %d, want 13 (Fubini(3))", st.TopSimplexes)
	}
	if !st.ThickConnected {
		t.Error("subdivision not 1-thick connected")
	}
	if !st.Pseudomanifold {
		t.Error("subdivision not a pseudomanifold")
	}
	// Per-process view counts: each process has 4 distinct views at n=3
	// (sees itself only; itself + one of the two others; everyone as part
	// of a pair-block or after everyone — wait, those coincide; the count
	// is data, assert the measured total instead).
	if st.Vertices != 12 {
		t.Errorf("vertices = %d, want 12 (4 views per process)", st.Vertices)
	}
}

// TestViewComplexN2: the chromatic subdivision of an edge: 3 edges, 6
// vertices... per process: sees-self, sees-both = 2 views each, 4 vertices
// and 3 top simplexes.
func TestViewComplexN2(t *testing.T) {
	const n = 2
	m := iis.New(protocols.SMFullInfo{}, n)
	x := m.Initial([]int{0, 1})
	st := m.Stats(x)
	if st.TopSimplexes != 3 {
		t.Errorf("top simplexes = %d, want 3", st.TopSimplexes)
	}
	if st.Vertices != 4 {
		t.Errorf("vertices = %d, want 4", st.Vertices)
	}
	if !st.ThickConnected || !st.Pseudomanifold {
		t.Error("edge subdivision structure wrong")
	}
}

// TestViewComplexDecode: the decode map recovers genuine view strings.
func TestViewComplexDecode(t *testing.T) {
	const n = 2
	m := iis.New(protocols.SMFullInfo{}, n)
	x := m.Initial([]int{0, 1})
	c, decode := m.ViewComplex(x)
	for _, v := range c.Simplexes(1) {
		vert := v.Vertices()[0]
		view, ok := decode[[2]int{vert.ID, vert.Value}]
		if !ok || view == "" {
			t.Errorf("vertex (%d,%d) has no decoded view", vert.ID, vert.Value)
		}
	}
}

// TestIteratedSubdivision: two IIS rounds give the twice-iterated
// chromatic subdivision — 13^2 = 169 distinct full-information outcomes at
// n=3, each one-round layer of a one-round state again having 13 views.
func TestIteratedSubdivision(t *testing.T) {
	const n = 3
	m := iis.New(protocols.SMFullInfo{}, n)
	x := m.Initial([]int{0, 1, 1})
	round1 := make(map[string]*shmem.State)
	for _, part := range iis.OrderedPartitions(n) {
		y := m.Apply(x, part)
		round1[y.Key()] = y
	}
	if len(round1) != 13 {
		t.Fatalf("round-1 outcomes = %d, want 13", len(round1))
	}
	round2 := make(map[string]bool)
	for _, y := range round1 {
		st := m.Stats(y)
		if st.TopSimplexes != 13 {
			t.Errorf("round-2 layer of a round-1 state has %d top simplexes, want 13", st.TopSimplexes)
		}
		for _, part := range iis.OrderedPartitions(n) {
			round2[m.Apply(y, part).Key()] = true
		}
	}
	if len(round2) != 13*13 {
		t.Errorf("round-2 outcomes = %d, want %d", len(round2), 13*13)
	}
}
