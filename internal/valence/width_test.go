package valence_test

import (
	"testing"

	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// TestBivalenceWidthMobile: in M^mf the environment is never short of
// bivalence — some bivalent state exists at every pre-decision depth, and
// classifications partition the frontier.
func TestBivalenceWidthMobile(t *testing.T) {
	const n, rounds = 3, 3
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	p := fieldTo(t, m, rounds).Width()
	for d := 0; d <= rounds-1; d++ {
		if p.Bivalent[d] == 0 {
			t.Errorf("depth %d: no bivalent states; the adversary would be stuck", d)
		}
		if got := p.Bivalent[d] + p.Univalent0[d] + p.Univalent1[d] + p.Null[d]; got != p.States[d] {
			t.Errorf("depth %d: classification sums to %d of %d states", d, got, p.States[d])
		}
		if p.Null[d] != 0 {
			t.Errorf("depth %d: %d null-valent states with an exact horizon", d, p.Null[d])
		}
	}
	// Both univalent classes are inhabited at depth 0 (the constant-input
	// states).
	if p.Univalent0[0] == 0 || p.Univalent1[0] == 0 {
		t.Error("expected both univalent classes among the initial states")
	}
}

// TestBivalenceWidthShrinksWithBudget: in S^t the bivalent frontier
// vanishes at depth t (budget-exhausted states are univalent), unlike in
// M^mf where it persists.
func TestBivalenceWidthShrinksWithBudget(t *testing.T) {
	const n, tt = 3, 1
	rounds := tt + 1
	m := syncmp.NewSt(protocols.FloodSet{Rounds: rounds}, n, tt)
	p := fieldTo(t, m, rounds).Width()
	// Bivalence exists initially (Lemma 3.6)...
	if p.Bivalent[0] == 0 {
		t.Error("no bivalent initial state")
	}
	// ...but with t=1 it is already gone at depth 1: a depth-1 state has
	// either 0 failures (a failure-free round — univalent by Lemma 6.4) or
	// t failures (budget spent — unique extension, univalent). This is the
	// sharp form of the Lemma 6.1 bound: the chain stops at t-1 = 0.
	for d := 1; d <= rounds; d++ {
		if p.Bivalent[d] != 0 {
			t.Errorf("depth %d: %d bivalent states; with t=1 none should exist past depth 0", d, p.Bivalent[d])
		}
	}
}
