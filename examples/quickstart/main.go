// Quickstart: the layered analysis in five steps, on the single mobile
// failure model M^mf (Santoro–Widmayer), reproducing Corollary 5.2.
//
//  1. Build a model: M^mf with the S1 layering, running FloodSet.
//  2. Check the structural lemma: every layer S(x) is similarity and
//     valence connected (Lemma 5.1).
//  3. Find a bivalent initial state (Lemma 3.6).
//  4. Build the bivalent chain (Theorem 4.2): the adversary's run that
//     keeps the system undecided.
//  5. Certify: the framework finds the concrete violation any consensus
//     candidate must exhibit in this model.
//
// Run with: go run ./examples/quickstart
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
	const n, rounds = 3, 3

	// 1. Model: M^mf running FloodSet that decides after `rounds` rounds.
	p := layers.FloodSet{Rounds: rounds}
	m := layers.MobileS1(p, n)
	fmt.Printf("model: %s\n\n", m.Name())

	// Explore every run to the decision bound once and sweep the valence
	// field over it: a state at depth d gets its valence within the
	// remaining rounds-d layers, and every step below reads that field.
	g, err := layers.ExploreIDCtx(nil, m, rounds, 0, 0)
	if err != nil {
		return err
	}
	f, err := layers.NewFieldCtx(nil, g)
	if err != nil {
		return err
	}

	// 2. Lemma 5.1: every S1 layer over the initial states is similarity
	// connected, hence valence connected.
	for _, u := range g.Inits {
		r := f.AnalyzeNode(u)
		if !r.SimilarityConnected || !r.ValenceConnected {
			return fmt.Errorf("layer connectivity failed at %s", layers.FormatState(g.States[u]))
		}
	}
	fmt.Printf("Lemma 5.1: all %d initial layers similarity+valence connected\n", len(g.Inits))

	// 3. Lemma 3.6: a bivalent initial state exists.
	if _, _, ok := f.BivalentAtBound(0); !ok {
		return fmt.Errorf("no bivalent initial state (Lemma 3.6 violated)")
	}
	fmt.Printf("Lemma 3.6: found a bivalent initial state\n\n")

	// 4. Theorem 4.2: extend bivalence layer by layer.
	ch, err := f.BivalentChain(rounds - 1)
	if err != nil {
		return err
	}
	if ch.Stuck != nil {
		return fmt.Errorf("bivalent chain stuck at depth %d", ch.Reached)
	}
	fmt.Printf("Theorem 4.2: bivalent chain of %d layers (nobody decides):\n%s\n",
		ch.Reached, layers.FormatExecution(ch.Exec))

	// 5. Corollary 5.2: certification of the same graph must find a
	// violation.
	w, err := layers.CertifyGraphCtx(nil, g, 0)
	if err != nil {
		return err
	}
	if w.Kind == layers.OK {
		return fmt.Errorf("consensus certified in M^mf — impossible per Corollary 5.2")
	}
	fmt.Printf("Corollary 5.2: FloodSet refuted in M^mf — %s\n%s", w.Kind, layers.FormatExecution(w.Exec))
	return nil
}
