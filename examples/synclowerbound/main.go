// Synclowerbound reproduces the Section 6 analysis of the t-resilient
// synchronous model end to end, and then runs the same protocol as a real
// concurrent cluster with injected failures:
//
//   - certify FloodSet(t+1) over the S^t submodel (the classical upper
//     bound holds);
//   - refute FloodSet(t) with a concrete adversary run (Corollary 6.3: the
//     t+1-round lower bound);
//   - build the Lemma 6.1 bivalent chain, watching the adversary spend one
//     failure per round;
//   - execute FloodSet(t+1) as n goroutine processes with a crash injected,
//     confirming the survivors agree.
//
// Run with: go run ./examples/synclowerbound
package main

import (
	"fmt"
	"log"

	layers "repro"
)

const (
	n = 4
	t = 2
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Upper bound: t+1 rounds suffice.
	good := layers.FloodSet{Rounds: t + 1}
	mGood := layers.SyncSt(good, n, t)
	gGood, err := layers.ExploreIDCtx(nil, mGood, t+1, 0, 0)
	if err != nil {
		return err
	}
	w, err := layers.CertifyGraphCtx(nil, gGood, 0)
	if err != nil {
		return err
	}
	fmt.Printf("upper bound:  %s with %d rounds over %s: %v\n", good.Name(), t+1, mGood.Name(), w.Kind)
	if w.Kind != layers.OK {
		return fmt.Errorf("t+1-round FloodSet refuted: %s", w.Detail)
	}

	// Lower bound: t rounds cannot work (Corollary 6.3).
	fast := layers.FloodSet{Rounds: t}
	mFast := layers.SyncSt(fast, n, t)
	w, err = layers.Certify(mFast, t, 0)
	if err != nil {
		return err
	}
	fmt.Printf("lower bound:  %s with %d rounds: %v\n", fast.Name(), t, w.Kind)
	if w.Kind == layers.OK {
		return fmt.Errorf("t-round FloodSet certified, contradicting Corollary 6.3")
	}
	fmt.Printf("adversary run:\n%s\n", layers.FormatExecution(w.Exec))

	// Lemma 6.1: the bivalent chain against the correct protocol, over the
	// valence field of the graph certified above.
	f, err := layers.NewFieldCtx(nil, gGood)
	if err != nil {
		return err
	}
	ch, err := f.BivalentChain(t - 1)
	if err != nil {
		return err
	}
	if ch.Stuck != nil {
		return fmt.Errorf("Lemma 6.1 chain stuck at %d", ch.Reached)
	}
	fmt.Printf("Lemma 6.1 chain (one failure per round keeps bivalence):\n%s\n",
		layers.FormatExecution(ch.Exec))

	// Concurrent execution: run FloodSet(t+1) as goroutine processes; crash
	// process 0 after its first round of sends reaches only process 1.
	inputs := []int{0, 1, 1, 1}
	cluster := layers.NewCluster(good, inputs)
	defer cluster.Close()
	drop := func(round, from, to int) bool {
		if from != 0 {
			return false
		}
		if round == 1 {
			return to != 1 // first faulty round: only process 1 hears it
		}
		return true // silenced forever after
	}
	decisions, err := cluster.RunRounds(t+1, drop)
	if err != nil {
		return err
	}
	fmt.Printf("cluster run with crash injection: decisions = %v\n", decisions)
	for i := 1; i < n; i++ {
		if decisions[i] != decisions[1] {
			return fmt.Errorf("survivors disagree: %v", decisions)
		}
	}
	fmt.Println("survivors agree — FloodSet(t+1) tolerates the injected crash")
	return nil
}
