package tasks_test

import (
	"testing"

	"repro/internal/tasks"
)

// TestZooVerdicts is experiment E7's core: the paper's 1-thick-connectivity
// condition (Theorem 7.2 / Corollary 7.3) must reproduce the literature's
// 1-resilient solvability verdict for every task in the zoo.
func TestZooVerdicts(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, task := range tasks.Zoo(n) {
			budget := task.SubproblemBudget
			if budget == 0 {
				budget = 1_000_000
			}
			_, ok, err := task.Problem.KThickConnected(1, budget)
			if err != nil {
				t.Errorf("n=%d %s: %v", n, task.Problem.Name, err)
				continue
			}
			if ok != task.Solvable1Resilient {
				t.Errorf("n=%d %s: 1-thick-connected = %v, literature says solvable = %v",
					n, task.Problem.Name, ok, task.Solvable1Resilient)
			}
		}
	}
}

// TestConsensusDisconnectedComponents pins down WHY consensus fails: for
// the full input set, C_Δ(I) consists of the two constant simplexes, which
// form two 1-thick components.
func TestConsensusDisconnectedComponents(t *testing.T) {
	const n = 3
	task := tasks.BinaryConsensus(n)
	c := task.Problem.OutputComplex(task.Problem.Inputs)
	comps := c.ThickComponents(n, 1)
	if len(comps) != 2 {
		t.Errorf("consensus output complex has %d 1-thick components, want 2", len(comps))
	}
}

// TestKSetOutputRichness sanity-checks the 2-set-agreement Δ: a mixed input
// allows every binary output vector, a constant input only the constant.
func TestKSetOutputRichness(t *testing.T) {
	const n = 3
	task := tasks.KSetAgreement(n, 2)
	mixed := task.Problem.Inputs[1] // inputs 1,0,0
	if got := len(task.Problem.Delta(mixed)); got != 8 {
		t.Errorf("mixed input allows %d outputs, want 8", got)
	}
	constant := task.Problem.Inputs[0] // inputs 0,0,0
	if got := len(task.Problem.Delta(constant)); got != 1 {
		t.Errorf("constant input allows %d outputs, want 1", got)
	}
}

// TestConsensusIsOneSetAgreement: k=1 set agreement must coincide with
// consensus in verdict.
func TestConsensusIsOneSetAgreement(t *testing.T) {
	const n = 3
	one := tasks.KSetAgreement(n, 1)
	_, ok, err := one.Problem.KThickConnected(1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("1-set agreement reported 1-thick connected; it is consensus and must not be")
	}
}

// TestLeaderElectionComponents: the FULL Δ has one component per candidate
// leader (not 1-thick connected), yet the task is 1-thick connected via the
// constant subproblem — the subproblem quantifier at work.
func TestLeaderElectionComponents(t *testing.T) {
	const n = 3
	task := tasks.LeaderElection(n)
	c := task.Problem.OutputComplex(task.Problem.Inputs)
	if comps := c.ThickComponents(n, 1); len(comps) != n {
		t.Errorf("election output complex has %d components, want %d", len(comps), n)
	}
	delta, ok, err := task.Problem.KThickConnected(1, 100)
	if err != nil || !ok {
		t.Fatalf("KThickConnected = %v, %v; want witness", ok, err)
	}
	// The witnessing Δ' must be a single constant simplex per input.
	for _, in := range task.Problem.Inputs {
		if got := len(delta(in)); got != 1 {
			t.Errorf("witness Δ'(%s) has %d simplexes, want 1", in, got)
		}
	}
}

// TestHolderElectionUnsolvable: deciding the id of a common 1-holder is
// consensus-hard; the condition must reject it for every subproblem.
func TestHolderElectionUnsolvable(t *testing.T) {
	const n = 3
	task := tasks.HolderElection(n)
	_, ok, err := task.Problem.KThickConnected(1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("holder-election reported 1-thick connected")
	}
}

// TestZooFourSolvable is experiment E7 at n = 4 for the six solvable
// tasks: each must come out 1-thick connected under its own budget.
// Renaming(4) has 840 options per input and budget 1, so only the
// canonical Δ′ = Δ can witness it, and that witness must keep every
// option. The other three tasks of Zoo(4) give no verdict and are not
// tested: consensus(4) and holder-election(4) exhaust the 10⁶-candidate
// budget, and majority(5) has 32 inputs, past the 16-input cap of the
// subset enumeration.
func TestZooFourSolvable(t *testing.T) {
	solvable := map[string]bool{
		"2-set-agreement(n=4)":  true,
		"identity(n=4)":         true,
		"constant-0(n=4)":       true,
		"leader-election(n=4)":  true,
		"epsilon-flag(n=4)":     true,
		"renaming(n=4,names=7)": true,
	}
	checked := 0
	for _, task := range tasks.Zoo(4) {
		p := task.Problem
		if !solvable[p.Name] {
			continue
		}
		checked++
		budget := task.SubproblemBudget
		if budget == 0 {
			budget = 1_000_000
		}
		delta, ok, err := p.KThickConnected(1, budget)
		if err != nil || !ok {
			t.Errorf("%s: KThickConnected = %v, %v; want 1-thick connected", p.Name, ok, err)
			continue
		}
		if p.Name != "renaming(n=4,names=7)" {
			continue
		}
		if budget != 1 || len(p.Inputs) != 16 {
			t.Fatalf("%s: budget %d, %d inputs; want 1 and 16", p.Name, budget, len(p.Inputs))
		}
		for _, in := range p.Inputs {
			got, want := delta(in), p.Delta(in)
			if len(got) != len(want) {
				t.Fatalf("%s: Δ′(%s) has %d options, Δ has %d", p.Name, in, len(got), len(want))
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("%s: Δ′(%s)[%d] = %s, Δ has %s", p.Name, in, i, got[i], want[i])
				}
			}
		}
	}
	if checked != len(solvable) {
		t.Errorf("checked %d tasks of Zoo(4), want %d", checked, len(solvable))
	}
}

// TestKThickConnectedAllocs guards the k-thick kernel's allocations over
// one E7 sweep, KThickConnected(1, ·) on every task of Zoo(3). Building a
// Complex per input subset and candidate Δ′ made 463,403 allocations per
// sweep; the kernel makes 1,769.
func TestKThickConnectedAllocs(t *testing.T) {
	zoo := tasks.Zoo(3)
	allocs := testing.AllocsPerRun(3, func() {
		for _, task := range zoo {
			budget := task.SubproblemBudget
			if budget == 0 {
				budget = 1_000_000
			}
			if _, _, err := task.Problem.KThickConnected(1, budget); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 5000 {
		t.Errorf("one Zoo(3) sweep made %.0f allocations, want at most 5000", allocs)
	}
}
