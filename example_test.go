package layers_test

import (
	"fmt"

	layers "repro"
)

// ExampleCertify refutes consensus in the single-mobile-failure model: the
// certifier explores every S1-run to the decision bound and reports the
// violation kind.
func ExampleCertify() {
	m := layers.MobileS1(layers.FloodSet{Rounds: 2}, 3)
	w, err := layers.Certify(m, 2, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(w.Kind)
	fmt.Println("witness layers:", w.Exec.Len())
	// Output:
	// agreement violation
	// witness layers: 2
}

// ExampleCertify_lowerBound contrasts the two halves of the Section 6
// story: t+1 rounds certify, t rounds are refuted.
func ExampleCertify_lowerBound() {
	const n, t = 3, 1
	good, _ := layers.Certify(layers.SyncSt(layers.FloodSet{Rounds: t + 1}, n, t), t+1, 0)
	fast, _ := layers.Certify(layers.SyncSt(layers.FloodSet{Rounds: t}, n, t), t, 0)
	fmt.Println("t+1 rounds:", good.Kind)
	fmt.Println("t rounds:  ", fast.Kind)
	// Output:
	// t+1 rounds: ok
	// t rounds:   agreement violation
}

// ExampleField_BivalentChain builds the Theorem 4.2 adversary run: layer
// by layer, always into a bivalent successor, reading valences off the
// field of the graph explored to the decision bound.
func ExampleField_BivalentChain() {
	m := layers.MobileS1(layers.FloodSet{Rounds: 3}, 3)
	g, err := layers.ExploreIDCtx(nil, m, 3, 0, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	f, err := layers.NewFieldCtx(nil, g)
	if err != nil {
		fmt.Println(err)
		return
	}
	ch, err := f.BivalentChain(2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("bivalent layers:", ch.Reached)
	fmt.Println("stuck:", ch.Stuck != nil)
	// Output:
	// bivalent layers: 2
	// stuck: false
}

// ExampleField_AnalyzeNode reports the similarity and valence structure of
// one layer S(x) — Lemma 5.1 for a single initial state.
func ExampleField_AnalyzeNode() {
	m := layers.MobileS1(layers.FloodSet{Rounds: 2}, 3)
	g, err := layers.ExploreIDCtx(nil, m, 3, 0, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	f, err := layers.NewFieldCtx(nil, g)
	if err != nil {
		fmt.Println(err)
		return
	}
	r := f.AnalyzeNode(g.Inits[1])
	fmt.Println("similarity connected:", r.SimilarityConnected)
	fmt.Println("valence connected:", r.ValenceConnected)
	// Output:
	// similarity connected: true
	// valence connected: true
}

// ExampleNewCluster runs FloodSet as real concurrent goroutine processes.
func ExampleNewCluster() {
	c := layers.NewCluster(layers.FloodSet{Rounds: 2}, []int{1, 0, 1})
	defer c.Close()
	decisions, err := c.RunRounds(2, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(decisions)
	// Output:
	// [0 0 0]
}

// ExampleSimilar exhibits Definition 3.1 on two initial states.
func ExampleSimilar() {
	m := layers.MobileS1(layers.FloodSet{Rounds: 2}, 3)
	x := m.Initial([]int{0, 0, 0})
	y := m.Initial([]int{0, 0, 1})
	j, ok := layers.Similar(x, y)
	fmt.Println(j, ok)
	// Output:
	// 2 true
}

// ExampleCertifyTask certifies 2-set agreement over ternary inputs in the
// mobile failure model — a solvable task exactly where consensus is not.
func ExampleCertifyTask() {
	const n = 3
	m := layers.MobileS1(layers.FloodSet{Rounds: 1}, n)
	var inits []layers.State
	for a := 0; a < 27; a++ {
		v := a
		in := make([]int, n)
		for i := 0; i < n; i++ {
			in[i] = v % 3
			v /= 3
		}
		inits = append(inits, m.Initial(in))
	}
	delta := layers.TaskZoo(n)[1].Problem.Delta // 2-set agreement
	w, err := layers.CertifyTask(m, inits, delta, 1, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(w.Kind)
	// Output:
	// ok
}

// ExampleValidateSyncProtocol runs the protocol conformance checks a
// protocol author should pass before using the analysis engine.
func ExampleValidateSyncProtocol() {
	violations := layers.ValidateSyncProtocol(layers.FloodSet{Rounds: 2}, 3, 3)
	fmt.Println("FloodSet violations:", len(violations))
	violations = layers.ValidateSyncProtocol(layers.FlickerDecider{}, 3, 3)
	fmt.Println("FlickerDecider violated write-once:", len(violations) > 0)
	// Output:
	// FloodSet violations: 0
	// FlickerDecider violated write-once: true
}
