package protocols_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestEarlyFloodSetCertified: the early-stopping variant is correct in the
// S^t submodel with worst-case t+1 rounds — matching the classical
// min(f+2, t+1) early-deciding results and respecting Corollary 6.3.
func TestEarlyFloodSetCertified(t *testing.T) {
	cases := []struct{ n, tt int }{
		{3, 1},
		{4, 2},
	}
	for _, c := range cases {
		bound := c.tt + 1
		p := protocols.EarlyFloodSet{MaxRounds: bound}
		m := syncmp.NewSt(p, c.n, c.tt)
		w, err := valence.Certify(nil, m, bound, 0)
		if err != nil {
			t.Fatalf("n=%d t=%d: %v", c.n, c.tt, err)
		}
		if w.Kind != valence.OK {
			t.Errorf("n=%d t=%d: EarlyFloodSet refuted: %v (%s)", c.n, c.tt, w.Kind, w.Detail)
		}
	}
}

// TestEarlyFloodSetDecidesEarly: in the failure-free run it decides at
// layer 2 — strictly earlier than FloodSet's fixed t+1 — and after a fully
// silent crash the survivors also decide at layer 2. This is Lemma 6.4 in
// action: a failure-free round forces univalence, and the protocol
// capitalizes on detecting it.
func TestEarlyFloodSetDecidesEarly(t *testing.T) {
	const n, tt = 4, 2
	p := protocols.EarlyFloodSet{MaxRounds: tt + 1}
	m := syncmp.NewSt(p, n, tt)
	r := &sim.Runner{Model: m, MaxLayers: tt + 2}

	out, err := r.Run(m.Initial([]int{0, 1, 1, 0}), sim.FirstAction{})
	if err != nil {
		t.Fatal(err)
	}
	if out.DecisionLayer != 2 {
		t.Errorf("failure-free decision layer = %d, want 2", out.DecisionLayer)
	}
	if !out.Agreement {
		t.Error("failure-free run disagreed")
	}

	out, err = r.Run(m.Initial([]int{0, 1, 1, 0}), &sim.Crash{Process: 0, AtLayer: 1, OmitTo: n})
	if err != nil {
		t.Fatal(err)
	}
	if out.DecisionLayer != 2 {
		t.Errorf("silent-crash decision layer = %d, want 2", out.DecisionLayer)
	}
	if !out.Agreement {
		t.Error("crash run disagreed among non-failed")
	}
}

// TestEarlyFloodSetCannotBeatLowerBound: forcing the fallback below t+1
// (MaxRounds = t) must be refuted — early stopping does not evade
// Corollary 6.3.
func TestEarlyFloodSetCannotBeatLowerBound(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.EarlyFloodSet{MaxRounds: tt}
	m := syncmp.NewSt(p, n, tt)
	w, err := valence.Certify(nil, m, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == valence.OK {
		t.Error("EarlyFloodSet with t-round fallback certified, contradicting Corollary 6.3")
	}
}

// TestEarlyFloodSetWorstCaseNeedsTPlus1: there IS a run that decides only
// at round t+1 (the adversary drips one partial failure per round), so the
// early decision does not make the t+1 bound slack.
func TestEarlyFloodSetWorstCaseNeedsTPlus1(t *testing.T) {
	const n, tt = 4, 2
	p := protocols.EarlyFloodSet{MaxRounds: tt + 1}
	m := syncmp.NewSt(p, n, tt)
	g, err := core.ExploreIDCtx(nil, m, tt+1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.BivalentChain(tt - 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stuck != nil {
		t.Fatal("bivalent chain stuck")
	}
	// The chain's final state is bivalent after t-1 rounds: by Lemma 3.1
	// at least n-t non-failed processes are undecided there, so decision
	// has not completed before round t+1 in every run.
	last := ch.Exec.Last()
	undecided := 0
	for i := 0; i < n; i++ {
		if last.FailedAt(i) {
			continue
		}
		if _, ok := last.Decided(i); !ok {
			undecided++
		}
	}
	if undecided < n-tt {
		t.Errorf("only %d undecided at the bivalent state, want >= %d", undecided, n-tt)
	}
}
