// Earlydecision explores the decision-time landscape around the t+1 lower
// bound (the Section 6 closing discussion, quantified):
//
//   - plain FloodSet decides at exactly t+1 in every run;
//   - EarlyFloodSet (decide when a round reveals no new failure) certifies
//     at the same bound but shows the classical min(f+2, t+1) histogram —
//     most runs decide at layer 2;
//   - the bivalence-width profile shows the adversary's shrinking room:
//     how many reachable states per layer are still bivalent;
//   - in the multi-failure layering, wasted faults provably shorten the
//     bivalence window.
//
// Run with: go run ./examples/earlydecision
package main

import (
	"fmt"
	"log"

	layers "repro"
)

const (
	n  = 4
	t  = 2
	rb = t + 1 // the round bound
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var inits []layers.State

	// Plain FloodSet: flat histogram at t+1.
	plain := layers.SyncSt(layers.FloodSet{Rounds: rb}, n, t)
	inits = []layers.State{plain.Initial([]int{0, 1, 1, 1})}
	d, err := layers.MeasureDecisionDepth(plain, inits, rb, 0)
	if err != nil {
		return err
	}
	fmt.Printf("FloodSet(%d):      runs=%d  decision layers [%d,%d]  histogram=%v\n",
		rb, d.Runs, d.Min, d.Max, d.Histogram)

	// EarlyFloodSet: min(f+2, t+1) shape.
	early := layers.SyncSt(layers.EarlyFloodSet{MaxRounds: rb}, n, t)
	inits = []layers.State{early.Initial([]int{0, 1, 1, 1})}
	d, err = layers.MeasureDecisionDepth(early, inits, rb, 0)
	if err != nil {
		return err
	}
	fmt.Printf("EarlyFloodSet(%d): runs=%d  decision layers [%d,%d]  histogram=%v\n",
		rb, d.Runs, d.Min, d.Max, d.Histogram)
	if w, err := layers.Certify(early, rb, 0); err != nil || w.Kind != layers.OK {
		return fmt.Errorf("EarlyFloodSet not certified: %v %v", w, err)
	}
	fmt.Println("EarlyFloodSet certified at bound t+1 — early decisions are free")

	// The adversary's room: bivalent states per layer, each judged within
	// the rounds left to the bound.
	g, err := layers.ExploreIDCtx(nil, plain, rb, 0, 0)
	if err != nil {
		return err
	}
	f, err := layers.NewFieldCtx(nil, g)
	if err != nil {
		return err
	}
	p := f.Width()
	fmt.Println("\nbivalence width in S^t (states bivalent/total per layer):")
	for depth := range p.States {
		fmt.Printf("  layer %d: %d/%d bivalent, %d univalent-0, %d univalent-1\n",
			depth, p.Bivalent[depth], p.States[depth], p.Univalent0[depth], p.Univalent1[depth])
	}

	// Wasted faults: with two failures allowed per round (t=2), a bivalent
	// state at round r still satisfies r <= failures <= t-1.
	multi := layers.SyncStMulti(layers.FloodSet{Rounds: 3}, 4, 2, 2)
	g, err = layers.ExploreIDCtx(nil, multi, 3, 0, 0)
	if err != nil {
		return err
	}
	field, err := layers.NewFieldCtx(nil, g)
	if err != nil {
		return err
	}
	violations := 0
	bivalent := 0
	for depth := 0; depth <= 3; depth++ {
		for _, u := range g.Layer(depth) {
			if !field.Bivalent(u) {
				continue
			}
			x := g.States[u]
			bivalent++
			f := 0
			for i := 0; i < 4; i++ {
				if x.FailedAt(i) {
					f++
				}
			}
			if f < depth || f > 1 {
				violations++
			}
		}
	}
	fmt.Printf("\nwasted faults (n=4, t=2, <=2 failures/round): %d bivalent states, %d violations of r <= f <= t-1\n",
		bivalent, violations)
	if violations > 0 {
		return fmt.Errorf("wasted-fault invariant violated")
	}
	return nil
}
