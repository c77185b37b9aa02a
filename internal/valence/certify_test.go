package valence_test

import (
	"testing"

	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestCertifyFloodSetCorrect is the positive half of the Section 6 story:
// FloodSet with t+1 rounds solves consensus in the S^t submodel of the
// t-resilient synchronous model.
func TestCertifyFloodSetCorrect(t *testing.T) {
	cases := []struct{ n, tt int }{
		{3, 1},
		{4, 1},
		{4, 2},
	}
	for _, c := range cases {
		p := protocols.FloodSet{Rounds: c.tt + 1}
		m := syncmp.NewSt(p, c.n, c.tt)
		w, err := valence.Certify(nil, m, c.tt+1, 0)
		if err != nil {
			t.Fatalf("n=%d t=%d: %v", c.n, c.tt, err)
		}
		if w.Kind != valence.OK {
			t.Errorf("n=%d t=%d: Certify = %v (%s), want ok", c.n, c.tt, w.Kind, w.Detail)
		}
	}
}

// TestCertifyFloodSetTooFast is the negative half (Corollary 6.3): deciding
// after only t rounds must fail, and the certifier must produce a concrete
// witness execution.
func TestCertifyFloodSetTooFast(t *testing.T) {
	cases := []struct{ n, tt int }{
		{3, 1},
		{4, 2},
	}
	for _, c := range cases {
		p := protocols.FloodSet{Rounds: c.tt}
		m := syncmp.NewSt(p, c.n, c.tt)
		w, err := valence.Certify(nil, m, c.tt, 0)
		if err != nil {
			t.Fatalf("n=%d t=%d: %v", c.n, c.tt, err)
		}
		if w.Kind == valence.OK {
			t.Fatalf("n=%d t=%d: too-fast FloodSet certified OK, violating the t+1 lower bound", c.n, c.tt)
		}
		if w.Kind != valence.AgreementViolation {
			t.Errorf("n=%d t=%d: witness kind = %v, want agreement violation", c.n, c.tt, w.Kind)
		}
		if w.Exec == nil || w.Exec.Len() > c.tt {
			t.Errorf("n=%d t=%d: witness execution missing or too long", c.n, c.tt)
		}
	}
}

// TestCertifyMobileNeverOK: in the mobile failure model no protocol solves
// consensus (Corollary 5.2); any decision bound must be refuted.
func TestCertifyMobileNeverOK(t *testing.T) {
	for _, rounds := range []int{1, 2, 3} {
		p := protocols.FloodSet{Rounds: rounds}
		m := mobile.New(p, 3)
		w, err := valence.Certify(nil, m, rounds, 0)
		if err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
		if w.Kind == valence.OK {
			t.Errorf("rounds=%d: certified OK in M^mf, contradicting Corollary 5.2", rounds)
		}
	}
}

// TestWitnessExecutionReplays verifies witness executions are genuine: the
// final state of the reported execution must exhibit the reported violation
// when re-derived through the model's successor function.
func TestWitnessExecutionReplays(t *testing.T) {
	p := protocols.FloodSet{Rounds: 1}
	m := syncmp.NewSt(p, 3, 1)
	w, err := valence.Certify(nil, m, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == valence.OK {
		t.Fatal("expected a violation")
	}
	// Replay: starting from w.Exec.Init, following the recorded actions
	// through m.Successors must reproduce the recorded states.
	x := w.Exec.Init
	for _, step := range w.Exec.Steps {
		found := false
		for _, s := range m.Successors(x) {
			if s.Action == step.Action {
				if s.State.Key() != step.State.Key() {
					t.Fatalf("replay diverged at action %q", step.Action)
				}
				x = s.State
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("action %q not offered by the model during replay", step.Action)
		}
	}
}

// TestCertifyBudget checks the visit budget is honored.
func TestCertifyBudget(t *testing.T) {
	p := protocols.FloodSet{Rounds: 3}
	m := syncmp.NewSt(p, 4, 2)
	if _, err := valence.Certify(nil, m, 3, 10); err == nil {
		t.Error("want budget error with maxVisits=10")
	}
}
