// Package simplex implements the combinatorial-topology vocabulary of
// Section 7 of the paper: vertices, simplexes, complexes, k-thick
// connectivity, coverings, and decision problems ⟨I, O, Δ⟩.
//
// A vertex is a pair (process id, value); a simplex is a set of vertices
// with pairwise-distinct process ids; a complex is a set of simplexes
// closed under containment. An n-size-complex has maximal simplexes of n
// vertices.
package simplex

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// ErrDuplicateID is returned when a simplex is built with two vertices
// carrying the same process id.
var ErrDuplicateID = errors.New("simplex: duplicate process id")

// Vertex is a pair ⟨process id, value⟩.
type Vertex struct {
	ID    int
	Value int
}

// Simplex is a set of vertices with pairwise-distinct process ids, kept
// sorted by id. The zero value is the empty simplex. The canonical key is
// computed once at construction; copies share it.
type Simplex struct {
	verts []Vertex
	key   string
}

// newSimplex wraps an id-sorted, duplicate-free vertex slice, computing the
// canonical key eagerly (simplexes are used as map keys throughout the
// complex machinery, so the key is nearly always needed).
func newSimplex(vs []Vertex) Simplex {
	return Simplex{verts: vs, key: encodeKey(vs)}
}

func encodeKey(vs []Vertex) string {
	if len(vs) == 0 {
		return ""
	}
	b := make([]byte, 0, 8*len(vs))
	for i, v := range vs {
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendInt(b, int64(v.ID), 10)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(v.Value), 10)
	}
	return string(b)
}

// New builds a simplex from vertices, sorting by process id. It returns
// ErrDuplicateID if two vertices share an id.
func New(verts ...Vertex) (Simplex, error) {
	vs := append([]Vertex(nil), verts...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	for i := 1; i < len(vs); i++ {
		if vs[i].ID == vs[i-1].ID {
			return Simplex{}, fmt.Errorf("id %d: %w", vs[i].ID, ErrDuplicateID)
		}
	}
	return newSimplex(vs), nil
}

// MustNew is New for statically-known vertex sets; it panics on duplicate
// ids and is intended for tests and task definitions.
func MustNew(verts ...Vertex) Simplex {
	s, err := New(verts...)
	if err != nil {
		panic(err)
	}
	return s
}

// FromValues builds the n-vertex simplex {⟨0,v0⟩,...,⟨n-1,v_{n-1}⟩}.
func FromValues(values []int) Simplex {
	vs := make([]Vertex, len(values))
	for i, v := range values {
		vs[i] = Vertex{ID: i, Value: v}
	}
	return newSimplex(vs)
}

// Size returns the number of vertices (the paper's k for a k-size-simplex).
func (s Simplex) Size() int { return len(s.verts) }

// Vertices returns the vertices in id order, as a fresh slice.
func (s Simplex) Vertices() []Vertex { return append([]Vertex(nil), s.verts...) }

// ValueOf returns the value of process id in the simplex.
func (s Simplex) ValueOf(id int) (int, bool) {
	i := sort.Search(len(s.verts), func(i int) bool { return s.verts[i].ID >= id })
	if i < len(s.verts) && s.verts[i].ID == id {
		return s.verts[i].Value, true
	}
	return 0, false
}

// Key returns a canonical encoding; two simplexes are equal exactly if
// their Keys are equal.
func (s Simplex) Key() string { return s.key }

// AppendKey implements core.KeyAppender: the key is precomputed at
// construction, so the fast path is a copy of the cached bytes.
//
//lint:hotpath
func (s Simplex) AppendKey(dst []byte) []byte { return append(dst, s.key...) }

// String implements fmt.Stringer.
func (s Simplex) String() string { return "{" + s.Key() + "}" }

// ContainsVertex reports whether the simplex contains the exact vertex.
func (s Simplex) ContainsVertex(v Vertex) bool {
	got, ok := s.ValueOf(v.ID)
	return ok && got == v.Value
}

// Contains reports whether sub is a face of s (every vertex of sub is a
// vertex of s).
func (s Simplex) Contains(sub Simplex) bool {
	for _, v := range sub.verts {
		if !s.ContainsVertex(v) {
			return false
		}
	}
	return true
}

// Intersect returns the simplex of vertices common to s and t.
func (s Simplex) Intersect(t Simplex) Simplex {
	var common []Vertex
	for _, v := range s.verts {
		if t.ContainsVertex(v) {
			common = append(common, v)
		}
	}
	return newSimplex(common)
}

// IntersectSize returns the number of vertices common to s and t without
// materializing the intersection — the hot inner comparison of the k-thick
// adjacency graphs. Both vertex slices are id-sorted, so a single merge
// suffices.
func (s Simplex) IntersectSize(t Simplex) int {
	count, i, j := 0, 0, 0
	for i < len(s.verts) && j < len(t.verts) {
		a, b := s.verts[i], t.verts[j]
		switch {
		case a.ID < b.ID:
			i++
		case a.ID > b.ID:
			j++
		default:
			if a.Value == b.Value {
				count++
			}
			i++
			j++
		}
	}
	return count
}

// Faces returns all faces of s of exactly the given size.
func (s Simplex) Faces(size int) []Simplex {
	if size < 0 || size > len(s.verts) {
		return nil
	}
	out := make([]Simplex, 0, binomial(len(s.verts), size))
	idx := make([]int, size)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == size {
			vs := make([]Vertex, size)
			for i, j := range idx {
				vs[i] = s.verts[j]
			}
			out = append(out, newSimplex(vs))
			return
		}
		for j := start; j <= len(s.verts)-(size-depth); j++ {
			idx[depth] = j
			rec(j+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

// binomial returns C(n, k); the arguments here are vertex counts, far from
// overflow.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1
	for i := 1; i <= k; i++ {
		out = out * (n - k + i) / i
	}
	return out
}
