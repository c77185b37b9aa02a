package simplex

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// miniConsensus is binary consensus for n processes, in-package (the tasks
// package depends on simplex, so the richer zoo lives there).
func miniConsensus(n int) *Problem {
	var inputs []Simplex
	for a := 0; a < 1<<uint(n); a++ {
		vals := make([]int, n)
		for i := 0; i < n; i++ {
			vals[i] = (a >> uint(i)) & 1
		}
		inputs = append(inputs, FromValues(vals))
	}
	constant := func(v int) Simplex {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = v
		}
		return FromValues(vals)
	}
	return &Problem{
		Name:   "consensus",
		N:      n,
		Inputs: inputs,
		Delta: func(in Simplex) []Simplex {
			seen := map[int]bool{}
			var out []Simplex
			for _, v := range in.Vertices() {
				if !seen[v.Value] {
					seen[v.Value] = true
					out = append(out, constant(v.Value))
				}
			}
			return out
		},
	}
}

func TestProblemOutputComplex(t *testing.T) {
	p := miniConsensus(2)
	c := p.OutputComplex(p.Inputs)
	if got := len(c.Simplexes(2)); got != 2 {
		t.Errorf("output complex has %d top simplexes, want 2 (the constants)", got)
	}
}

func TestThickConnectedWith(t *testing.T) {
	p := miniConsensus(2)
	ok, err := p.ThickConnectedWith(p.Delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("consensus Δ reported 1-thick connected")
	}
	// A constant Δ' is connected.
	constDelta := func(Simplex) []Simplex { return []Simplex{FromValues([]int{0, 0})} }
	ok, err = p.ThickConnectedWith(constDelta, 1)
	if err != nil || !ok {
		t.Errorf("constant Δ' = (%v,%v), want connected", ok, err)
	}
}

func TestKThickConnectedVerdictAndBudget(t *testing.T) {
	p := miniConsensus(2)
	// Exhaustive: consensus is not 1-thick connected under any Δ'.
	if _, ok, err := p.KThickConnected(1, 0); err != nil || ok {
		t.Errorf("consensus KThickConnected = (%v,%v)", ok, err)
	}
	// A tight budget trips ErrBudget (the full Δ fails, the enumeration
	// then exceeds one candidate).
	if _, _, err := p.KThickConnected(1, 1); !errors.Is(err, ErrBudget) {
		t.Errorf("budget err = %v", err)
	}
	// Empty Δ is rejected.
	bad := &Problem{N: 2, Inputs: p.Inputs, Delta: func(Simplex) []Simplex { return nil }}
	if _, _, err := bad.KThickConnected(1, 0); err == nil {
		t.Error("empty Δ accepted")
	}
}

func TestMinThicknessInPackage(t *testing.T) {
	p := miniConsensus(2)
	k, err := p.MinThickness(0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("MinThickness = %d, want n = 2", k)
	}
}

func TestConnectedInputSubsetsCap(t *testing.T) {
	p := miniConsensus(5) // 32 inputs > 16
	if _, err := p.ConnectedInputSubsets(); !errors.Is(err, ErrTooManyInputs) {
		t.Errorf("err = %v, want ErrTooManyInputs", err)
	}
	if _, err := p.ThickConnectedWith(p.Delta, 1); err == nil {
		t.Error("ThickConnectedWith should propagate the cap error")
	}
}

func TestSimplexString(t *testing.T) {
	s := FromValues([]int{7, 8})
	if got := s.String(); !strings.Contains(got, "0=7") || !strings.Contains(got, "1=8") {
		t.Errorf("String() = %q", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on duplicate ids")
		}
	}()
	MustNew(Vertex{0, 1}, Vertex{0, 2})
}

// randomProblem maps a seed to a small problem for the differential fuzz
// target: n ∈ {2,3}, a random subset of the binary inputs, and 1–4 options
// per input. Most options are n-size; some are smaller than n (no n-size
// face) and some have an extra vertex n (n+1 n-size faces). It also picks
// k ∈ 0..n+1 and a budget from {0, 1, 3, 50}. An unbounded search over
// more than 1024 candidate Δ′ would take the reference too long, so such
// a problem gets budget 50 instead of 0.
func randomProblem(seed uint64) (p *Problem, k, budget int) {
	r := rand.New(rand.NewSource(int64(seed)))
	n := 2 + r.Intn(2)
	values := 2 + r.Intn(2)
	delta := make(map[string][]Simplex)
	var inputs []Simplex
	space := 1
	for a := 0; a < 1<<uint(n); a++ {
		if r.Intn(4) == 0 {
			continue
		}
		vals := make([]int, n)
		for i := range vals {
			vals[i] = (a >> uint(i)) & 1
		}
		in := FromValues(vals)
		inputs = append(inputs, in)
		opts := make([]Simplex, 1+r.Intn(4))
		for b := range opts {
			size, ids := n, n
			switch r.Intn(6) {
			case 0:
				size = r.Intn(n)
			case 1:
				size, ids = n+1, n+1
			}
			verts := make([]Vertex, size)
			for j, id := range r.Perm(ids)[:size] {
				verts[j] = Vertex{ID: id, Value: r.Intn(values)}
			}
			opts[b] = MustNew(verts...)
		}
		delta[in.Key()] = opts
		space *= 1<<uint(len(opts)) - 1
	}
	k = r.Intn(n + 2)
	budget = []int{0, 1, 3, 50}[r.Intn(4)]
	if budget == 0 && space > 1024 {
		budget = 50
	}
	p = &Problem{
		Name:   fmt.Sprintf("random(seed=%d)", seed),
		N:      n,
		Inputs: inputs,
		Delta:  func(s Simplex) []Simplex { return delta[s.Key()] },
	}
	return p, k, budget
}

// FuzzKThickConnected checks the k-thick kernel against the reference
// search (problem_ref_test.go) on random problems: the verdict, the
// witness Δ′ of every input and the error must all be the reference's.
// ThickConnectedWith(Δ, k) must equal k-thick connectivity of the complex
// built for every similarity-connected input subset.
func FuzzKThickConnected(f *testing.F) {
	for seed := uint64(0); seed < 300; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p, k, budget := randomProblem(seed)
		if d := diffKThickConnected(p, k, budget); d != "" {
			t.Fatalf("%s k=%d budget=%d: %s", p.Name, k, budget, d)
		}
		got, err := p.ThickConnectedWith(p.Delta, k)
		want := true
		subsets, _ := connectedInputSubsetsRef(p) // at most 8 inputs: no error
		for _, idx := range subsets {
			inputs := make([]Simplex, len(idx))
			for i, j := range idx {
				inputs[i] = p.Inputs[j]
			}
			if !p.OutputComplex(inputs).ThickConnected(p.N, k) {
				want = false
				break
			}
		}
		if err != nil || got != want {
			t.Fatalf("%s k=%d: ThickConnectedWith = %v, %v; complexes say %v", p.Name, k, got, err, want)
		}
	})
}

// TestConnectedInputSubsetsMatchesReference compares the mask enumeration
// with the graph-based reference on random input sets of up to 16
// binary inputs (n = 2..4).
func TestConnectedInputSubsetsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 2 + trial%3
		p := &Problem{N: n}
		for a := 0; a < 1<<uint(n); a++ {
			if r.Intn(3) == 0 {
				continue
			}
			vals := make([]int, n)
			for i := range vals {
				vals[i] = (a >> uint(i)) & 1
			}
			p.Inputs = append(p.Inputs, FromValues(vals))
		}
		got, err := p.ConnectedInputSubsets()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := connectedInputSubsetsRef(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%d inputs): subsets\n%v\nreference\n%v", trial, len(p.Inputs), got, want)
		}
	}
}

// TestManyOptionsCanonicalCheck: the canonical Δ′ = Δ uses every option,
// past the 64th too. Here input 0 reaches its neighbour's only top through
// its 65th option alone.
func TestManyOptionsCanonicalCheck(t *testing.T) {
	p := manyOptionsProblem(65, true)
	delta, ok, err := p.KThickConnected(1, 1)
	if err != nil || !ok {
		t.Fatalf("KThickConnected = %v, %v; want the canonical Δ′", ok, err)
	}
	for _, in := range p.Inputs {
		if got, want := simplexKeys(delta(in)), simplexKeys(p.Delta(in)); got != want {
			t.Errorf("Δ′(%s) has %d options, want all %d of Δ", in, len(delta(in)), len(p.Delta(in)))
		}
	}
}

// TestManyOptionsSearchRefused: when Δ is not connected and an input has
// 64 or more options, the mask search would have 2^64−1 candidates for it,
// past any budget (0 included), so KThickConnected returns ErrBudget.
func TestManyOptionsSearchRefused(t *testing.T) {
	for _, budget := range []int{0, 1, 1_000_000} {
		p := manyOptionsProblem(64, false)
		if _, ok, err := p.KThickConnected(1, budget); !errors.Is(err, ErrBudget) {
			t.Errorf("budget %d: KThickConnected = %v, %v; want ErrBudget", budget, ok, err)
		}
	}
}

// manyOptionsProblem has two adjacent inputs of n = 2. Input {0=0;1=0} has
// the given number of options {0=0;1=v}, v = 2, 3, ...; when bridge is set
// the last one is {0=0;1=1} instead. Input {0=1;1=0} has the single option
// {0=1;1=1}. Only the bridge shares a vertex with {0=1;1=1}, so without it
// Δ is not 1-thick connected over the pair.
func manyOptionsProblem(options int, bridge bool) *Problem {
	a, b := FromValues([]int{0, 0}), FromValues([]int{1, 0})
	var many []Simplex
	for v := 2; len(many) < options; v++ {
		many = append(many, FromValues([]int{0, v}))
	}
	if bridge {
		many[len(many)-1] = FromValues([]int{0, 1})
	}
	return &Problem{
		Name:   "many-options",
		N:      2,
		Inputs: []Simplex{a, b},
		Delta: func(s Simplex) []Simplex {
			if s.Key() == a.Key() {
				return many
			}
			return []Simplex{FromValues([]int{1, 1})}
		},
	}
}
