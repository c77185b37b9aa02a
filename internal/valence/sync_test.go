package valence_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestLemma61BivalentChainSt constructs the Lemma 6.1 execution for
// FloodSet(t+1) under S^t: starting from a bivalent initial state, a chain
// of bivalent states x^0,...,x^{t-1} with at most m processes failed at x^m.
func TestLemma61BivalentChainSt(t *testing.T) {
	cases := []struct{ n, tt int }{
		{3, 1},
		{4, 2},
	}
	for _, c := range cases {
		rounds := c.tt + 1
		p := protocols.FloodSet{Rounds: rounds}
		m := syncmp.NewSt(p, c.n, c.tt)
		o := valence.NewOracle(m)
		target := c.tt - 1
		ch, err := valence.BivalentChain(m, o, valence.DecreasingHorizon(rounds, 1), target)
		if err != nil {
			t.Fatalf("n=%d t=%d: %v", c.n, c.tt, err)
		}
		if ch.Stuck != nil || ch.Reached != target {
			t.Fatalf("n=%d t=%d: chain reached %d of %d (stuck=%v)", c.n, c.tt, ch.Reached, target, ch.Stuck != nil)
		}
		for depth, x := range ch.Exec.States() {
			if f := core.FailedCount(x); f > depth {
				t.Errorf("n=%d t=%d: %d failed at depth %d, want <= depth", c.n, c.tt, f, depth)
			}
			// Lemma 3.1: at a bivalent state at least n-t non-failed
			// processes are undecided.
			if err := valence.CheckBivalentUndecided(o, x, rounds-depth, c.tt); err != nil {
				t.Errorf("n=%d t=%d depth %d: %v", c.n, c.tt, depth, err)
			}
		}
	}
}

// TestLemma62OneMoreRound checks Lemma 6.2: from a bivalent state of
// R_{S^t}, some successor has a non-failed process that has not decided —
// so agreement cannot complete in one round after bivalence.
func TestLemma62OneMoreRound(t *testing.T) {
	const n, tt = 4, 2
	rounds := tt + 1
	p := protocols.FloodSet{Rounds: rounds}
	m := syncmp.NewSt(p, n, tt)
	o := valence.NewOracle(m)

	g, err := core.ExploreID(m, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, x := range g.States {
		s := x.(*syncmp.State)
		depth := s.Round()
		if !o.Bivalent(x, rounds-depth) {
			continue
		}
		checked++
		found := false
		for _, succ := range m.Successors(x) {
			y := succ.State
			for i := 0; i < n; i++ {
				if y.FailedAt(i) {
					continue
				}
				if _, ok := y.Decided(i); !ok {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Errorf("bivalent state at round %d: every successor fully decided (Lemma 6.2 fails)", depth)
		}
	}
	if checked == 0 {
		t.Error("no bivalent states found to check")
	}
}

// TestLemma64FastUnivalence checks Lemma 6.4: for a fast protocol
// (FloodSet with t+1 rounds), if at most k processes have failed by the end
// of round k and round k+1 is failure-free, the resulting state is
// univalent.
func TestLemma64FastUnivalence(t *testing.T) {
	cases := []struct{ n, tt int }{
		{3, 1},
		{4, 2},
	}
	for _, c := range cases {
		rounds := c.tt + 1
		p := protocols.FloodSet{Rounds: rounds}
		m := syncmp.NewSt(p, c.n, c.tt)
		o := valence.NewOracle(m)
		g, err := core.ExploreID(m, rounds-1, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, x := range g.States {
			s := x.(*syncmp.State)
			k := s.Round()
			if k >= rounds || s.FailedCount() > k {
				continue
			}
			y := syncmp.ApplyAction(p, s, 0, 0, true, true) // failure-free round k+1
			if _, ok := o.Univalent(y, rounds-(k+1)); !ok {
				t.Errorf("n=%d t=%d: state after failure-free round %d (<=%d failures) not univalent",
					c.n, c.tt, k+1, k)
			}
			checked++
		}
		if checked == 0 {
			t.Error("nothing checked")
		}
	}
}

// TestStSimilarityStructure records the measured similarity structure of
// S^t layers under failure recording (see DESIGN.md): within a layer, the
// states that share the same newly-failed process are similarity connected,
// while valence connectivity of the whole layer still holds for the tested
// protocol — which is what Lemma 4.1 actually consumes.
func TestStSimilarityStructure(t *testing.T) {
	const n, tt = 4, 2
	rounds := tt + 1
	p := protocols.FloodSet{Rounds: rounds}
	m := syncmp.NewSt(p, n, tt)
	o := valence.NewOracle(m)
	for _, x := range m.Inits() {
		r := valence.AnalyzeLayer(m, o, x, rounds)
		if !r.ValenceConnected {
			t.Errorf("init %q: S^t layer not valence connected", x.Key())
		}
		// With the failed set recorded in the environment (Section 6
		// assumption (iii)), layers split into one similarity component per
		// newly-failed process plus the failure-free state: n+1 components.
		if r.SimilarityComponents != n+1 {
			t.Errorf("init %q: %d similarity components, want %d",
				x.Key(), r.SimilarityComponents, n+1)
		}
	}
}
