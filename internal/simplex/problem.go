package simplex

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrTooManyInputs is returned when a similarity-subset enumeration would
// be intractable.
var ErrTooManyInputs = errors.New("simplex: too many input simplexes to enumerate connected subsets")

// ErrBudget is returned when the subproblem search exceeds its budget.
var ErrBudget = errors.New("simplex: subproblem search budget exceeded")

// DeltaFunc maps an input simplex to the set of output simplexes the
// problem allows for it.
type DeltaFunc func(input Simplex) []Simplex

// Problem is a decision problem ⟨I, O, Δ⟩ for n processes, presented by its
// n-size input simplexes and the Δ map. The input and output complexes are
// the closures of the listed simplexes.
type Problem struct {
	// Name identifies the problem.
	Name string
	// N is the number of processes.
	N int
	// Inputs are the n-size input simplexes (the paper's D_0, one initial
	// state per input simplex).
	Inputs []Simplex
	// Delta is the task specification.
	Delta DeltaFunc
}

// OutputComplex returns C_Δ(I): the complex generated by ∪_{s∈I} Δ(s).
func (p *Problem) OutputComplex(inputs []Simplex) *Complex {
	c := NewComplex()
	for _, s := range inputs {
		for _, o := range p.Delta(s) {
			c.Add(o)
		}
	}
	return c
}

// InputAdjacent reports whether two input n-simplexes correspond to similar
// initial states: they differ in the value of exactly one process (the
// environment is the same in all initial states, and no process is failed
// at an initial state).
func InputAdjacent(a, b Simplex) bool {
	if a.Size() != b.Size() {
		return false
	}
	diff := 0
	for _, v := range a.Vertices() {
		w, ok := b.ValueOf(v.ID)
		if !ok {
			return false
		}
		if w != v.Value {
			diff++
		}
	}
	return diff == 1
}

// ConnectedInputSubsets enumerates every nonempty similarity-connected
// subset of the problem's input simplexes, as index slices into p.Inputs.
// It refuses (ErrTooManyInputs) when len(p.Inputs) > 16.
func (p *Problem) ConnectedInputSubsets() ([][]int, error) {
	masks, err := p.connectedInputMasks()
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(masks))
	for si, mask := range masks {
		idx := make([]int, 0, bits.OnesCount32(mask))
		for m := mask; m != 0; m &= m - 1 {
			idx = append(idx, bits.TrailingZeros32(m))
		}
		out[si] = idx
	}
	return out, nil
}

// connectedInputMasks is ConnectedInputSubsets with each subset as a bit
// mask over p.Inputs, in increasing mask order.
func (p *Problem) connectedInputMasks() ([]uint32, error) {
	n := len(p.Inputs)
	if n > 16 {
		return nil, fmt.Errorf("%d inputs: %w", n, ErrTooManyInputs)
	}
	adj := make([]uint32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if InputAdjacent(p.Inputs[i], p.Inputs[j]) {
				adj[i] |= 1 << uint(j)
				adj[j] |= 1 << uint(i)
			}
		}
	}
	var out []uint32
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		if SubsetConnected(adj, mask) {
			out = append(out, mask)
		}
	}
	return out, nil
}

// SubsetConnected reports whether the vertices in mask induce a connected
// subgraph of a graph on at most 32 vertices, given as one neighbour mask
// per vertex (here: the inputs of the similarity graph).
func SubsetConnected(adj []uint32, mask uint32) bool {
	seen := mask & -mask
	for frontier := seen; frontier != 0; {
		var next uint32
		for f := frontier; f != 0; f &= f - 1 {
			next |= adj[bits.TrailingZeros32(f)]
		}
		frontier = next & mask &^ seen
		seen |= frontier
	}
	return seen == mask
}

// ThickConnectedWith reports whether, under the given Δ' (a subproblem's
// map), C_Δ'(I) is k-thick-connected for every similarity-connected subset
// I of the inputs.
func (p *Problem) ThickConnectedWith(delta DeltaFunc, k int) (bool, error) {
	subsets, err := p.connectedInputMasks()
	if err != nil {
		return false, err
	}
	options := make([][]Simplex, len(p.Inputs))
	for i, s := range p.Inputs {
		options[i] = delta(s)
	}
	return newThickKernel(p.N, k, options, subsets).connectedUnder(nil), nil
}

// ThickConnectedSubsets reports, for each subset (a mask over the inputs
// of options, at most 32), whether the complex generated by every option
// of its inputs is k-thick connected at dimension n: one verdict per
// subset, where ThickConnectedWith asks only whether all hold.
func ThickConnectedSubsets(n, k int, options [][]Simplex, subsets []uint32) []bool {
	kn := newThickKernel(n, k, options, subsets)
	kn.choose(nil)
	out := make([]bool, len(subsets))
	for j, mask := range subsets {
		out[j] = kn.subsetConnected(mask)
	}
	return out
}

// KThickConnected implements the paper's definition: the problem is
// k-thick-connected if some subproblem Δ' ⊆ Δ (with Δ'(s) nonempty for all
// s) makes C_Δ'(I) k-thick-connected for every similarity-connected input
// subset I. The subproblem space is searched exhaustively up to `budget`
// candidate subproblems (ErrBudget beyond that). It returns the witnessing
// Δ' when the problem is k-thick-connected.
//
// The canonical Δ' = Δ is tried first, with every option. The search past
// it enumerates each Δ(s) by subset masks, so an input with 64 or more
// options, whose 2^64−1 nonempty subsets exceed any budget, makes it
// return ErrBudget at once.
func (p *Problem) KThickConnected(k, budget int) (DeltaFunc, bool, error) {
	// Precompute Δ(s) per input.
	options := make([][]Simplex, len(p.Inputs))
	for i, s := range p.Inputs {
		options[i] = p.Delta(s)
		if len(options[i]) == 0 {
			return nil, false, fmt.Errorf("simplex: input %s has empty Δ", s)
		}
	}
	subsets, err := p.connectedInputMasks()
	if err != nil {
		return nil, false, err
	}
	kn := newThickKernel(p.N, k, options, subsets)
	// Try the canonical subproblem Δ' = Δ first: when it works (the common
	// case for solvable tasks) no search is needed.
	if kn.connectedUnder(nil) {
		return deltaFromChoice(p.Inputs, options, nil), true, nil
	}
	for i, opts := range options {
		if len(opts) >= 64 {
			return nil, false, fmt.Errorf("input %s has %d options, 2^%d-1 subsets: %w",
				p.Inputs[i], len(opts), len(opts), ErrBudget)
		}
	}
	// Enumerate the remaining nonempty subsets of each Δ(s) via per-input
	// masks (a mixed-radix counter).
	full := make([]uint64, len(options))
	for i := range full {
		full[i] = 1<<uint(len(options[i])) - 1
	}
	choice := make([]uint64, len(options))
	for i := range choice {
		choice[i] = 1
	}
	tried := 0
	for {
		isFull := true
		for i := range choice {
			if choice[i] != full[i] {
				isFull = false
				break
			}
		}
		if !isFull {
			tried++
			if budget > 0 && tried > budget {
				return nil, false, fmt.Errorf("after %d subproblems: %w", tried, ErrBudget)
			}
			if kn.connectedUnder(choice) {
				return deltaFromChoice(p.Inputs, options, choice), true, nil
			}
		}
		// Advance.
		i := 0
		for ; i < len(choice); i++ {
			choice[i]++
			if choice[i] < 1<<uint(len(options[i])) {
				break
			}
			choice[i] = 1
		}
		if i == len(choice) {
			return nil, false, nil
		}
	}
}

// deltaFromChoice materializes a subproblem Δ' from per-input subset
// masks; a nil choice selects every option.
func deltaFromChoice(inputs []Simplex, options [][]Simplex, choice []uint64) DeltaFunc {
	m := make(map[string][]Simplex, len(inputs))
	for i, s := range inputs {
		var outs []Simplex
		for b, o := range options[i] {
			if choice == nil || choice[i]&(1<<uint(b)) != 0 {
				outs = append(outs, o)
			}
		}
		m[s.Key()] = outs
	}
	return func(s Simplex) []Simplex { return m[s.Key()] }
}

// MinThickness returns the smallest k in 1..n for which the problem is
// k-thick connected (every problem is n-thick connected since empty
// intersections are allowed at k = n). Per Lemma 7.5's contrapositive, a
// problem with MinThickness k is not solvable within k-1 rounds of the
// (k-1)-resilient synchronous model; the consensus family sits at k = n
// while trivially solvable tasks sit at k = 1.
func (p *Problem) MinThickness(budget int) (int, error) {
	for k := 1; k <= p.N; k++ {
		_, ok, err := p.KThickConnected(k, budget)
		if err != nil {
			return 0, err
		}
		if ok {
			return k, nil
		}
	}
	return p.N, nil
}

// ThickDiameter returns the diameter of the k-thick adjacency graph on the
// complex's n-size-simplexes and whether that graph is connected; used for
// the Theorem 7.7 diameter condition.
func (c *Complex) ThickDiameter(n, k int) (int, bool) {
	g, _ := c.thickGraph(n, k)
	return g.Diameter()
}
