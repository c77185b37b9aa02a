// Asyncimpossibility reproduces the Section 5.1 analysis of the two
// asynchronous models:
//
//   - shared memory, synchronic layering S^rw: the near-synchronous
//     submodel in which consensus is still impossible (Corollary 5.4),
//     including the x(j,n) ~v x(j,A) bridge from Lemma 5.3's proof;
//   - message passing, permutation layering S^per: the transposition
//     similarity chain and the minimal FLP diamond, plus the refutation.
//
// Run with: go run ./examples/asyncimpossibility
package main

import (
	"fmt"
	"log"

	layers "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 3
	if err := sharedMemory(n); err != nil {
		return err
	}
	fmt.Println()
	return messagePassing(n)
}

func sharedMemory(n int) error {
	const phases = 2
	p := layers.SMVote{Phases: phases}
	m := layers.SharedMemory(p, n)
	fmt.Printf("== %s ==\n", m.Name())

	// Lemma 5.3's bridge: y = x(j,n)(j,A) and y' = x(j,A)(j,0) agree
	// modulo j — the step that links the absent action into the layer.
	x := m.Initial([]int{0, 1, 1})
	j := 1
	y := m.ApplyAbsent(m.Apply(x, j, n), j)
	yp := m.Apply(m.ApplyAbsent(x, j), j, 0)
	d := layers.CompareStates(y, yp)
	fmt.Printf("bridge x(j,n)(j,A) vs x(j,A)(j,0): %s\n", d)
	if !layers.AgreeModulo(y, yp, j) {
		return fmt.Errorf("bridge does not agree modulo %d", j)
	}

	// Every synchronic layer is valence connected: its states are judged
	// within the full phase bound, so the field's graph goes one layer
	// past it.
	g, err := layers.ExploreIDCtx(nil, m, phases+1, 0, 0)
	if err != nil {
		return err
	}
	f, err := layers.NewFieldCtx(nil, g)
	if err != nil {
		return err
	}
	for _, u := range g.Inits {
		if r := f.AnalyzeNode(u); !r.ValenceConnected {
			return fmt.Errorf("S^rw layer not valence connected")
		}
	}
	fmt.Println("Lemma 5.3: all initial S^rw layers valence connected")

	// Corollary 5.4: refutation even in this near-synchronous submodel.
	w, err := layers.Certify(m, phases, 0)
	if err != nil {
		return err
	}
	if w.Kind == layers.OK {
		return fmt.Errorf("consensus certified in M^rw, contradicting Corollary 5.4")
	}
	fmt.Printf("Corollary 5.4: SMVote refuted — %s\n%s", w.Kind, layers.FormatExecution(w.Exec))
	return nil
}

func messagePassing(n int) error {
	const phases = 2
	fi := layers.AsyncMessagePassing(layers.MPFullInfo{}, n)
	fmt.Printf("== %s ==\n", fi.Name())

	// Transposition chain: [..pk,pk+1..] ~s [..{pk,pk+1}..] ~s [..pk+1,pk..].
	x := fi.Initial([]int{0, 1, 1})
	seq := fi.Sequential(x, []int{0, 1, 2})
	conc := fi.WithPair(x, []int{0, 1, 2}, 0)
	swp := fi.Sequential(x, []int{1, 0, 2})
	fmt.Printf("seq vs conc:  %s\n", layers.CompareStates(seq, conc))
	fmt.Printf("conc vs swap: %s\n", layers.CompareStates(conc, swp))

	// The minimal FLP diamond: two schedules, one state.
	yTop := fi.Sequential(fi.Sequential(x, []int{0, 1, 2}), []int{0, 1})
	yBot := fi.Sequential(fi.Sequential(x, []int{0, 1}), []int{2, 0, 1})
	if yTop.Key() != yBot.Key() {
		return fmt.Errorf("diamond states differ")
	}
	fmt.Println("diamond: x[p1..pn][p1..pn-1] == x[p1..pn-1][pn,p1..pn-1] (exact state equality)")

	// And the top states are NOT similar — the reason valence is needed.
	full := fi.Sequential(x, []int{0, 1, 2})
	head := fi.Sequential(x, []int{0, 1})
	fmt.Printf("diamond tops: %s\n", layers.CompareStates(full, head))

	// Refutation of the flooding heuristic under the permutation layering.
	p := layers.MPFlood{Phases: phases}
	m := layers.AsyncMessagePassing(p, n)
	w, err := layers.Certify(m, phases, 6_000_000)
	if err != nil {
		return err
	}
	if w.Kind == layers.OK {
		return fmt.Errorf("consensus certified in async MP")
	}
	fmt.Printf("FLP for S^per: MPFlood refuted — %s (witness: %d layers)\n", w.Kind, w.Exec.Len())
	return nil
}
