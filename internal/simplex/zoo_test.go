package simplex_test

import (
	"testing"

	"repro/internal/simplex"
	"repro/internal/tasks"
)

// TestKernelMatchesReferenceOnZoo runs the Δ′ search over every task of
// the zoo at n = 2, 3, every k in 1..n and budgets {0, 1, 2, 5, 10⁶}, and
// checks it against the reference search of problem_ref_test.go: the
// verdict, the witness Δ′ of every input and the error must be the
// reference's. Every row is practical for the reference at these sizes
// (the whole table takes it under a second), so none is skipped.
func TestKernelMatchesReferenceOnZoo(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, task := range tasks.Zoo(n) {
			p := task.Problem
			for k := 1; k <= p.N; k++ {
				for _, budget := range []int{0, 1, 2, 5, 1_000_000} {
					if d := simplex.DiffKThickConnected(p, k, budget); d != "" {
						t.Errorf("%s k=%d budget=%d: %s", p.Name, k, budget, d)
					}
				}
			}
		}
	}
}

// TestThickConnectedWithMatchesComplexes: ThickConnectedWith(Δ, k) is
// k-thick connectivity of the complex C_Δ(I) of every similarity-connected
// input subset I, checked here by building each complex.
func TestThickConnectedWithMatchesComplexes(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, task := range tasks.Zoo(n) {
			p := task.Problem
			subsets, err := p.ConnectedInputSubsets()
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= p.N; k++ {
				want := true
				for _, idx := range subsets {
					inputs := make([]simplex.Simplex, len(idx))
					for i, j := range idx {
						inputs[i] = p.Inputs[j]
					}
					if !p.OutputComplex(inputs).ThickConnected(p.N, k) {
						want = false
						break
					}
				}
				got, err := p.ThickConnectedWith(p.Delta, k)
				if err != nil || got != want {
					t.Errorf("%s k=%d: ThickConnectedWith = %v, %v; complexes say %v", p.Name, k, got, err, want)
				}
			}
		}
	}
}
