package simplex

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestNewRejectsDuplicateIDs(t *testing.T) {
	if _, err := New(Vertex{0, 1}, Vertex{0, 2}); err == nil {
		t.Error("want ErrDuplicateID")
	}
}

func TestSimplexCanonicalOrder(t *testing.T) {
	a := MustNew(Vertex{2, 5}, Vertex{0, 1}, Vertex{1, 3})
	b := MustNew(Vertex{0, 1}, Vertex{1, 3}, Vertex{2, 5})
	if a.Key() != b.Key() {
		t.Errorf("keys differ for same vertex set: %q vs %q", a.Key(), b.Key())
	}
	ids := a.Vertices()
	if ids[0].ID != 0 || ids[1].ID != 1 || ids[2].ID != 2 {
		t.Errorf("vertices not sorted: %v", ids)
	}
}

func TestContainsAndIntersect(t *testing.T) {
	s := FromValues([]int{0, 1, 0})
	face := MustNew(Vertex{0, 0}, Vertex{2, 0})
	if !s.Contains(face) {
		t.Error("face not contained")
	}
	other := FromValues([]int{0, 0, 0})
	got := s.Intersect(other)
	want := MustNew(Vertex{0, 0}, Vertex{2, 0})
	if got.Key() != want.Key() {
		t.Errorf("Intersect = %s, want %s", got, want)
	}
	if s.Contains(MustNew(Vertex{1, 0})) {
		t.Error("contains vertex with wrong value")
	}
}

func TestFacesCount(t *testing.T) {
	s := FromValues([]int{7, 8, 9, 10})
	// C(4,k) faces of each size.
	want := map[int]int{0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
	for size, count := range want {
		if got := len(s.Faces(size)); got != count {
			t.Errorf("Faces(%d): %d, want %d", size, got, count)
		}
	}
	if s.Faces(5) != nil || s.Faces(-1) != nil {
		t.Error("out-of-range Faces should be nil")
	}
}

func TestFacesAreContainedProperty(t *testing.T) {
	f := func(vals []int8, size uint8) bool {
		if len(vals) > 6 {
			vals = vals[:6]
		}
		ints := make([]int, len(vals))
		for i, v := range vals {
			ints[i] = int(v)
		}
		s := FromValues(ints)
		k := int(size) % (len(vals) + 1)
		for _, face := range s.Faces(k) {
			if face.Size() != k || !s.Contains(face) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComplexClosure(t *testing.T) {
	c := NewComplex(FromValues([]int{0, 1}))
	if !c.Has(MustNew(Vertex{0, 0})) || !c.Has(MustNew(Vertex{1, 1})) {
		t.Error("faces missing from complex")
	}
	if c.Has(MustNew(Vertex{1, 0})) {
		t.Error("complex contains an absent vertex")
	}
	if c.MaxSize() != 2 {
		t.Errorf("MaxSize = %d, want 2", c.MaxSize())
	}
	if c.Len() != 3 { // 1 edge + 2 vertices
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestThickConnected(t *testing.T) {
	// Two disjoint triangles: not 1-thick connected (no shared 2-face).
	a := FromValues([]int{0, 0, 0})
	b := FromValues([]int{1, 1, 1})
	c := NewComplex(a, b)
	if c.ThickConnected(3, 1) {
		t.Error("disjoint constant simplexes must not be 1-thick connected")
	}
	if comps := c.ThickComponents(3, 1); len(comps) != 2 {
		t.Errorf("ThickComponents = %d, want 2", len(comps))
	}
	// They ARE 3-thick connected (empty intersection allowed: n-k = 0).
	if !c.ThickConnected(3, 3) {
		t.Error("any two simplexes are n-thick connected")
	}
	// Add the bridge simplexes of the binary cube: now 1-thick connected.
	cube := NewComplex()
	for m := 0; m < 8; m++ {
		cube.Add(FromValues([]int{m & 1, (m >> 1) & 1, (m >> 2) & 1}))
	}
	if !cube.ThickConnected(3, 1) {
		t.Error("binary cube complex must be 1-thick connected")
	}
}

func TestUnion(t *testing.T) {
	a := NewComplex(FromValues([]int{0, 0}))
	b := NewComplex(FromValues([]int{1, 1}))
	u := a.Union(b)
	if !u.Has(FromValues([]int{0, 0})) || !u.Has(FromValues([]int{1, 1})) {
		t.Error("union missing a simplex")
	}
	if u.Has(FromValues([]int{0, 1})) {
		t.Error("union invented a simplex")
	}
}

func TestInputAdjacent(t *testing.T) {
	a := FromValues([]int{0, 0, 0})
	b := FromValues([]int{0, 1, 0})
	c := FromValues([]int{1, 1, 0})
	if !InputAdjacent(a, b) || !InputAdjacent(b, c) {
		t.Error("Hamming-1 inputs must be adjacent")
	}
	if InputAdjacent(a, c) {
		t.Error("Hamming-2 inputs must not be adjacent")
	}
	if InputAdjacent(a, a) {
		t.Error("a simplex is not adjacent to itself")
	}
}

func TestConnectedInputSubsets(t *testing.T) {
	p := &Problem{
		N: 2,
		Inputs: []Simplex{
			FromValues([]int{0, 0}),
			FromValues([]int{0, 1}),
			FromValues([]int{1, 0}),
			FromValues([]int{1, 1}),
		},
	}
	subsets, err := p.ConnectedInputSubsets()
	if err != nil {
		t.Fatal(err)
	}
	// The 4 binary inputs form a 4-cycle: connected subsets are the 4
	// singletons, 4 edges, 4 paths of length 2, and the full set plus the
	// 4 3-subsets = 4+4+4+4+1 = ... compute: all nonempty subsets of a
	// 4-cycle that induce a connected subgraph: 4 + 4 + 4 + 1 + 4 = ...
	// verify by brute reference below instead of a hand count.
	count := 0
	adj := func(i, j int) bool { return InputAdjacent(p.Inputs[i], p.Inputs[j]) }
	for mask := 1; mask < 16; mask++ {
		var members []int
		for i := 0; i < 4; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, i)
			}
		}
		// BFS on members.
		seen := map[int]bool{members[0]: true}
		stack := []int{members[0]}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range members {
				if !seen[v] && adj(u, v) {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		if len(seen) == len(members) {
			count++
		}
	}
	if len(subsets) != count {
		t.Errorf("ConnectedInputSubsets = %d subsets, reference says %d", len(subsets), count)
	}
	for _, idx := range subsets {
		if !sort.IntsAreSorted(idx) {
			t.Errorf("subset %v not sorted", idx)
		}
	}
}
