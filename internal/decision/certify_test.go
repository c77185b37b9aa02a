package decision_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/resilient"
	"repro/internal/syncmp"
	"repro/internal/tasks"
)

// ternaryInits builds the 3^n ternary-input initial states of a model that
// exposes Initial(inputs).
func ternaryInits(n int, initial func([]int) core.State) []core.State {
	var out []core.State
	total := 1
	for i := 0; i < n; i++ {
		total *= 3
	}
	for a := 0; a < total; a++ {
		inputs := make([]int, n)
		v := a
		for i := 0; i < n; i++ {
			inputs[i] = v % 3
			v /= 3
		}
		out = append(out, initial(inputs))
	}
	return out
}

// TestTwoSetAgreementSolvableInMobile is the positive side of the
// Corollary 7.3 boundary, operationally: in the very model where consensus
// is impossible (M^mf), one round of flooding solves 2-set agreement over
// ternary inputs — at most one process's value can be hidden per round, so
// at most two distinct minima arise.
func TestTwoSetAgreementSolvableInMobile(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 1}
	m := mobile.New(p, n)
	inits := ternaryInits(n, func(in []int) core.State { return m.Initial(in) })
	delta := tasks.KSetAgreement(n, 2).Problem.Delta
	w, err := decision.CertifyTask(nil, m, inits, delta, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != decision.TaskOK {
		t.Errorf("2-set agreement refuted in M^mf: %v (%s)", w.Kind, w.Detail)
	}
}

// TestConsensusTaskRefutedInMobile: the same protocol against the
// consensus Δ (1-set agreement) must be refuted with an output violation —
// two distinct minima extend no constant simplex.
func TestConsensusTaskRefutedInMobile(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 1}
	m := mobile.New(p, n)
	inits := ternaryInits(n, func(in []int) core.State { return m.Initial(in) })
	delta := tasks.BinaryConsensus(n).Problem.Delta // reads values from the input simplex
	w, err := decision.CertifyTask(nil, m, inits, delta, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != decision.TaskOutputViolation {
		t.Errorf("verdict = %v, want output violation", w.Kind)
	}
	if w.Exec == nil {
		t.Error("missing witness execution")
	}
}

// TestTwoSetBoundaryWithTwoFailures: allow TWO simultaneous failures per
// round (the multi-failure layering) and 2-set agreement breaks — with
// three nonfaulty processes spread across the nested omission prefixes,
// three distinct minima become reachable (e.g. inputs (2,2,2,0,1): process
// 3 omits to [2] and process 4 omits to [1], giving nonfaulty minima
// 2, 1, 0). This is the t < k solvability boundary of k-set agreement,
// measured. Note n=5 is needed: with n=4 only two processes stay nonfaulty
// and at most two minima can appear among them.
func TestTwoSetBoundaryWithTwoFailures(t *testing.T) {
	const n = 5
	p := protocols.FloodSet{Rounds: 1}
	m := syncmp.NewStMulti(p, n, 2, 2)
	delta := tasks.KSetAgreement(n, 2).Problem.Delta

	// The single witness input family suffices (and keeps the exhaustive
	// search small): three 2s and the values 0 and 1 on the two processes
	// that will fail.
	witness := []core.State{m.Initial([]int{2, 2, 2, 0, 1})}
	w, err := decision.CertifyTask(nil, m, witness, delta, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != decision.TaskOutputViolation {
		t.Errorf("verdict = %v, want output violation with 2 failures/round", w.Kind)
	}

	// With the failure rate back to one per round, 2-set agreement holds
	// over the full ternary input space.
	single := syncmp.NewStMulti(p, n, 2, 1)
	inits := ternaryInits(n, func(in []int) core.State { return single.Initial(in) })
	w, err = decision.CertifyTask(nil, single, inits, delta, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != decision.TaskOK {
		t.Errorf("verdict = %v, want ok with 1 failure/round (%s)", w.Kind, w.Detail)
	}

	// And 3-set agreement absorbs even two failures per round: the nested
	// prefix structure of the omission sets yields at most three reception
	// classes among the nonfaulty.
	delta3 := tasks.KSetAgreement(n, 3).Problem.Delta
	w, err = decision.CertifyTask(nil, m, witness, delta3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != decision.TaskOK {
		t.Errorf("3-set verdict = %v, want ok (%s)", w.Kind, w.Detail)
	}
}

// TestCertifyTaskIdentity: "decide your own input" certifies instantly
// with a decide-at-round-1 echo protocol... FloodSet decides min, which is
// NOT the identity task; instead verify the identity Δ rejects FloodSet
// whenever inputs are mixed.
func TestCertifyTaskIdentity(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 1}
	m := mobile.New(p, n)
	inits := []core.State{m.Initial([]int{0, 1, 1})}
	delta := tasks.Identity(n).Problem.Delta
	w, err := decision.CertifyTask(nil, m, inits, delta, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != decision.TaskOutputViolation {
		t.Errorf("verdict = %v, want output violation (min-flooding is not the identity)", w.Kind)
	}
}

// TestCertifyTaskWriteOnce: the flicker protocol trips the task
// certifier's write-once check too.
func TestCertifyTaskWriteOnce(t *testing.T) {
	const n = 3
	p := protocols.FlickerDecider{}
	m := syncmp.NewSt(p, n, 1)
	inits := []core.State{m.Initial([]int{0, 0, 0})}
	// Permissive Δ: anything binary goes.
	delta := tasks.KSetAgreement(n, n).Problem.Delta
	w, err := decision.CertifyTask(nil, m, inits, delta, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != decision.TaskDecisionChanged {
		t.Errorf("verdict = %v, want write-once violation", w.Kind)
	}
}

func TestTaskWitnessKindStrings(t *testing.T) {
	want := map[decision.TaskWitnessKind]string{
		decision.TaskOK:               "ok",
		decision.TaskOutputViolation:  "output outside Δ(input)",
		decision.TaskUndecidedAtBound: "undecided at bound",
		decision.TaskDecisionChanged:  "write-once decision changed",
		decision.TaskWitnessKind(42):  "TaskWitnessKind(42)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestCertifyTaskResumesOnlyItsTask: E10 certifies two tasks over one
// graph, so a certify checkpoint cut from one task must not resume the
// other; it resumes its own task to the uninterrupted verdict.
func TestCertifyTaskResumesOnlyItsTask(t *testing.T) {
	const n = 3
	m := mobile.New(protocols.FloodSet{Rounds: 1}, n)
	inits := ternaryInits(n, func(in []int) core.State { return m.Initial(in) })
	two := tasks.KSetAgreement(n, 2).Problem.Delta
	one := tasks.BinaryConsensus(n).Problem.Delta
	wantTwo, err := decision.CertifyTask(nil, m, inits, two, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantOne, err := decision.CertifyTask(nil, m, inits, one, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(chaos.NewPlan().Set("certify.visit", chaos.Rule{Hit: 5, Kind: chaos.KindCancel}))
	_, perr := decision.CertifyTask(nil, m, inits, two, 1, 0)
	chaos.Disarm()
	ck, ok := resilient.CheckpointFrom(perr)
	if !ok {
		t.Fatalf("no checkpoint attached to %v", perr)
	}
	sections, err := ck.Sections()
	if err != nil {
		t.Fatal(err)
	}
	ctx := resilient.Background()
	ctx.SetResume(sections)
	gotOne, err := decision.CertifyTask(ctx, m, inits, one, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PeekResume(resilient.TagCertify) == nil {
		t.Fatal("the 2-set agreement checkpoint resumed the consensus task")
	}
	gotTwo, err := decision.CertifyTask(ctx, m, inits, two, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PeekResume(resilient.TagCertify) != nil {
		t.Fatal("the 2-set agreement checkpoint was not resumed")
	}
	for _, c := range []struct{ want, got *decision.TaskWitness }{{wantOne, gotOne}, {wantTwo, gotTwo}} {
		if c.got.Kind != c.want.Kind || c.got.Detail != c.want.Detail || c.got.Explored != c.want.Explored {
			t.Errorf("verdict (%v, %q, %d), want (%v, %q, %d)",
				c.got.Kind, c.got.Detail, c.got.Explored, c.want.Kind, c.want.Detail, c.want.Explored)
		}
	}
}
