package iis

import (
	"repro/internal/shmem"
	"repro/internal/simplex"
)

// ViewComplex builds the protocol complex of one IIS round from state x:
// a vertex per (process, post-round local view), one n-simplex per ordered
// partition. For the full-information protocol this is the standard
// chromatic subdivision of the input simplex — the combinatorial object
// behind the topological treatments the paper relates its approach to.
//
// Since simplex vertices carry integer values, distinct view strings are
// dictionary-encoded per process; the returned map recovers the view string
// from (process, code).
func (m *Model) ViewComplex(x *shmem.State) (*simplex.Complex, map[[2]int]string) {
	type viewKey struct {
		p    int
		view string
	}
	codes := make(map[viewKey]int)
	decode := make(map[[2]int]string)
	perProcess := make([]int, m.N())
	code := func(p int, view string) int {
		k := viewKey{p: p, view: view}
		if c, ok := codes[k]; ok {
			return c
		}
		c := perProcess[p]
		perProcess[p]++
		codes[k] = c
		decode[[2]int{p, c}] = view
		return c
	}

	// Deterministic order: iterate partitions as enumerated.
	c := simplex.NewComplex()
	for _, part := range m.partitions {
		y := m.Apply(x, part)
		verts := make([]simplex.Vertex, m.N())
		for i := 0; i < m.N(); i++ {
			verts[i] = simplex.Vertex{ID: i, Value: code(i, y.Local(i))}
		}
		s, err := simplex.New(verts...)
		if err != nil {
			continue // unreachable: ids are distinct by construction
		}
		c.Add(s)
	}
	return c, decode
}

// SubdivisionStats summarizes a one-round view complex.
type SubdivisionStats struct {
	// Vertices is the number of distinct (process, view) vertices.
	Vertices int
	// TopSimplexes is the number of n-size simplexes (= distinct one-round
	// outcomes; the Fubini number under full information).
	TopSimplexes int
	// ThickConnected reports 1-thick connectivity of the top simplexes.
	ThickConnected bool
	// Pseudomanifold reports that every (n-1)-face lies in at most two
	// top simplexes — the boundary structure of a subdivided simplex.
	Pseudomanifold bool
}

// Stats computes the subdivision summary of one IIS round from x.
func (m *Model) Stats(x *shmem.State) SubdivisionStats {
	c, _ := m.ViewComplex(x)
	st := SubdivisionStats{
		Vertices:       len(c.Simplexes(1)),
		TopSimplexes:   len(c.Simplexes(m.N())),
		ThickConnected: c.ThickConnected(m.N(), 1),
		Pseudomanifold: true,
	}
	// Count top simplexes per (n-1)-face.
	faceCount := make(map[string]int)
	for _, top := range c.Simplexes(m.N()) {
		for _, f := range top.Faces(m.N() - 1) {
			if faceCount[f.Key()]++; faceCount[f.Key()] > 2 {
				st.Pseudomanifold = false
			}
		}
	}
	return st
}
