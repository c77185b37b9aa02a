package graph

import (
	"testing"
	"testing/quick"
)

func TestUnionFindBasic(t *testing.T) {
	u := NewUnionFind(5)
	if u.Sets() != 5 {
		t.Fatalf("Sets() = %d, want 5", u.Sets())
	}
	if !u.Union(0, 1) {
		t.Error("Union(0,1) = false on first merge")
	}
	if u.Union(1, 0) {
		t.Error("Union(1,0) = true on repeated merge")
	}
	u.Union(2, 3)
	if u.Connected(0, 2) {
		t.Error("Connected(0,2) before merge")
	}
	u.Union(1, 3)
	if !u.Connected(0, 2) {
		t.Error("Connected(0,2) after merging chains")
	}
	if u.Sets() != 2 {
		t.Errorf("Sets() = %d, want 2", u.Sets())
	}
}

func TestUnionFindTransitivityProperty(t *testing.T) {
	// After an arbitrary merge sequence, Connected must be an equivalence
	// relation consistent with a reference partition.
	f := func(pairs [][2]uint8) bool {
		const n = 16
		u := NewUnionFind(n)
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		relabel := func(from, to int) {
			for i := range ref {
				if ref[i] == from {
					ref[i] = to
				}
			}
		}
		for _, p := range pairs {
			a, b := int(p[0])%n, int(p[1])%n
			u.Union(a, b)
			relabel(ref[a], ref[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if u.Connected(i, j) != (ref[i] == ref[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func path(n int) *Undirected {
	g := NewUndirected(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestUndirectedPathGraph(t *testing.T) {
	g := path(5)
	if !g.Connected() {
		t.Error("path graph not connected")
	}
	d, conn := g.Diameter()
	if !conn || d != 4 {
		t.Errorf("Diameter() = %d,%v, want 4,true", d, conn)
	}
	p := g.Path(0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("Path(0,4) = %v", p)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("Path(0,4) = %v, want %v", p, want)
		}
	}
}

func TestUndirectedDisconnected(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Error("two-component graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Errorf("Components() = %v, want 2 components", comps)
	}
	if g.Path(0, 3) != nil {
		t.Error("Path across components should be nil")
	}
	d, conn := g.Diameter()
	if conn || d != 1 {
		t.Errorf("Diameter() = %d,%v, want 1,false", d, conn)
	}
}

func TestUndirectedSelfLoopIgnored(t *testing.T) {
	g := NewUndirected(2)
	g.AddEdge(0, 0)
	if len(g.adj[0]) != 0 {
		t.Error("self-loop recorded")
	}
	if g.Connected() {
		t.Error("graph with no real edges reported connected")
	}
}

func TestPathEndpointsProperty(t *testing.T) {
	// On a random graph, every returned path starts at src, ends at dst,
	// and each consecutive pair is an edge.
	f := func(edges [][2]uint8, src, dst uint8) bool {
		const n = 12
		g := NewUndirected(n)
		adj := make(map[[2]int]bool)
		for _, e := range edges {
			a, b := int(e[0])%n, int(e[1])%n
			g.AddEdge(a, b)
			adj[[2]int{a, b}] = true
			adj[[2]int{b, a}] = true
		}
		s, d := int(src)%n, int(dst)%n
		p := g.Path(s, d)
		if p == nil {
			return true // unreachable; checked elsewhere
		}
		if p[0] != s || p[len(p)-1] != d {
			return false
		}
		for i := 0; i+1 < len(p); i++ {
			if !adj[[2]int{p[i], p[i+1]}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
