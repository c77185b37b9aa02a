package simplex

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/graph"
)

// The straightforward Δ′ search that the k-thick kernel in problem.go
// replaced, kept as the reference the kernel is checked against
// (FuzzKThickConnected, TestKernelMatchesReferenceOnZoo). For every
// candidate Δ′ and every similarity-connected input subset it builds a
// Complex of the chosen options and asks Complex.ThickConnected, memoized
// per subset on the restricted choice masks. Its subsets come from the
// graph-based enumeration that ConnectedInputSubsets used to run, so the
// reference shares no code with the kernel beyond Complex.
//
// Its masks wrap once an input has 64 options or more: the canonical check
// and the witness keep only the first 64. The tests keep it away from such
// problems.

// connectedInputSubsetsRef enumerates the similarity-connected input
// subsets with a graph.Undirected and a stack per mask.
func connectedInputSubsetsRef(p *Problem) ([][]int, error) {
	n := len(p.Inputs)
	if n > 16 {
		return nil, fmt.Errorf("%d inputs: %w", n, ErrTooManyInputs)
	}
	adj := graph.NewUndirected(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if InputAdjacent(p.Inputs[i], p.Inputs[j]) {
				adj.AddEdge(i, j)
			}
		}
	}
	var out [][]int
	for mask := 1; mask < 1<<uint(n); mask++ {
		if subsetConnectedRef(adj, mask) {
			var idx []int
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					idx = append(idx, i)
				}
			}
			out = append(out, idx)
		}
	}
	return out, nil
}

// subsetConnectedRef reports whether the vertices in mask induce a
// connected subgraph of adj.
func subsetConnectedRef(adj *graph.Undirected, mask int) bool {
	start := -1
	count := 0
	for i := 0; i < adj.Len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			if start < 0 {
				start = i
			}
			count++
		}
	}
	if count <= 1 {
		return true
	}
	seen := 1 << uint(start)
	stack := []int{start}
	reached := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 0; v < adj.Len(); v++ {
			bit := 1 << uint(v)
			if mask&bit == 0 || seen&bit != 0 || len(adj.Path(u, v)) != 2 {
				continue
			}
			seen |= bit
			reached++
			stack = append(stack, v)
		}
	}
	return reached == count
}

// kThickConnectedRef is the reference Problem.KThickConnected.
func kThickConnectedRef(p *Problem, k, budget int) (DeltaFunc, bool, error) {
	// Precompute Δ(s) per input.
	options := make([][]Simplex, len(p.Inputs))
	for i, s := range p.Inputs {
		options[i] = p.Delta(s)
		if len(options[i]) == 0 {
			return nil, false, fmt.Errorf("simplex: input %s has empty Δ", s)
		}
	}
	subsets, err := connectedInputSubsetsRef(p)
	if err != nil {
		return nil, false, err
	}
	// A subset's verdict depends only on the choice masks of the inputs it
	// contains, and the mixed-radix counter below revisits each restricted
	// combination once per setting of the irrelevant inputs — so memoize
	// per-subset verdicts keyed on the restricted masks.
	memos := make([]map[string]bool, len(subsets))
	for i := range memos {
		memos[i] = make(map[string]bool)
	}
	connectedUnder := func(choice []uint64) bool {
		for si, idx := range subsets {
			kb := make([]byte, 0, 8*len(idx))
			for _, j := range idx {
				m := choice[j]
				kb = append(kb, byte(m), byte(m>>8), byte(m>>16), byte(m>>24),
					byte(m>>32), byte(m>>40), byte(m>>48), byte(m>>56))
			}
			mk := string(kb)
			v, seen := memos[si][mk]
			if !seen {
				c := NewComplex()
				for _, j := range idx {
					for b, o := range options[j] {
						if choice[j]&(1<<uint(b)) != 0 {
							c.Add(o)
						}
					}
				}
				v = c.ThickConnected(p.N, k)
				memos[si][mk] = v
			}
			if !v {
				return false
			}
		}
		return true
	}
	// Try the canonical subproblem Δ' = Δ first: when it works (the common
	// case for solvable tasks) no search is needed.
	full := make([]uint64, len(options))
	for i := range full {
		full[i] = 1<<uint(len(options[i])) - 1
	}
	if connectedUnder(full) {
		return deltaFromChoiceRef(p.Inputs, options, full), true, nil
	}
	// Enumerate the remaining nonempty subsets of each Δ(s) via per-input
	// masks (a mixed-radix counter).
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
			if connectedUnder(choice) {
				return deltaFromChoiceRef(p.Inputs, options, choice), true, nil
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

// deltaFromChoiceRef materializes a subproblem Δ' from per-input subset
// masks.
func deltaFromChoiceRef(inputs []Simplex, options [][]Simplex, choice []uint64) DeltaFunc {
	m := make(map[string][]Simplex, len(inputs))
	for i, s := range inputs {
		var outs []Simplex
		for b, o := range options[i] {
			if choice[i]&(1<<uint(b)) != 0 {
				outs = append(outs, o)
			}
		}
		m[s.Key()] = outs
	}
	return func(s Simplex) []Simplex { return m[s.Key()] }
}

// diffKThickConnected runs Problem.KThickConnected and the reference on
// the same problem and returns "" when they agree on the verdict, on the
// witness Δ′ of every input (keys, in order) and on the error (text and
// errors.Is(ErrBudget)), or else a description of the first difference.
func diffKThickConnected(p *Problem, k, budget int) string {
	gotD, gotOK, gotErr := p.KThickConnected(k, budget)
	wantD, wantOK, wantErr := kThickConnectedRef(p, k, budget)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("error %q, reference %q", gotErr, wantErr)
	case errors.Is(gotErr, ErrBudget) != errors.Is(wantErr, ErrBudget):
		return fmt.Sprintf("errors.Is(%v, ErrBudget) differs from the reference's", gotErr)
	case gotOK != wantOK:
		return fmt.Sprintf("verdict %v, reference %v", gotOK, wantOK)
	case (gotD == nil) != (wantD == nil):
		return fmt.Sprintf("witness present %v, reference %v", gotD != nil, wantD != nil)
	}
	if gotD == nil {
		return ""
	}
	for _, s := range p.Inputs {
		if got, want := simplexKeys(gotD(s)), simplexKeys(wantD(s)); got != want {
			return fmt.Sprintf("witness Δ′(%s) = %s, reference %s", s, got, want)
		}
	}
	return ""
}

// simplexKeys joins the keys of ss, in order.
func simplexKeys(ss []Simplex) string {
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = s.String()
	}
	return strings.Join(keys, " ")
}
