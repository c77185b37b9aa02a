package valence_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestValenceMonotoneInHorizon: v-valence within horizon h implies
// v-valence within any larger horizon — the mask can only grow.
func TestValenceMonotoneInHorizon(t *testing.T) {
	const n, rounds = 3, 2
	p := protocols.FloodSet{Rounds: rounds}
	m := mobile.New(p, n)
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := valence.NewOracle(m)
	for _, x := range g.States {
		prev := uint8(0)
		for h := 0; h <= rounds+1; h++ {
			cur := o.Valences(x, h)
			if cur&prev != prev {
				t.Fatalf("valence mask shrank from %02b to %02b at horizon %d", prev, cur, h)
			}
			prev = cur
		}
	}
}

// TestValenceZeroHorizonIsDecisions: with horizon 0 the mask is exactly
// the decided values of the state's non-failed processes.
func TestValenceZeroHorizonIsDecisions(t *testing.T) {
	const n, rounds = 3, 2
	p := protocols.FloodSet{Rounds: rounds}
	m := mobile.New(p, n)
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := valence.NewOracle(m)
	for _, x := range g.States {
		if got, want := o.Valences(x, 0), uint8(core.DecidedValues(x)&0b11); got != want {
			t.Fatalf("Valences(x,0) = %02b, want %02b", got, want)
		}
	}
}

// TestUnivalentAndShared exercises the classification helpers.
func TestUnivalentAndShared(t *testing.T) {
	const n, rounds = 3, 2
	p := protocols.FloodSet{Rounds: rounds}
	m := mobile.New(p, n)
	o := valence.NewOracle(m)
	zero := m.Initial([]int{0, 0, 0})
	one := m.Initial([]int{1, 1, 1})
	mixed := m.Initial([]int{0, 1, 1})
	if v, ok := o.Univalent(zero, rounds); !ok || v != 0 {
		t.Errorf("all-0: Univalent = (%d,%v)", v, ok)
	}
	if v, ok := o.Univalent(one, rounds); !ok || v != 1 {
		t.Errorf("all-1: Univalent = (%d,%v)", v, ok)
	}
	if _, ok := o.Univalent(mixed, rounds); ok {
		t.Error("mixed input reported univalent (it is bivalent)")
	}
	if !o.SharedValence(zero, mixed, rounds) {
		t.Error("bivalent state must share a valence with a 0-valent one")
	}
	if o.SharedValence(zero, one, rounds) {
		t.Error("opposite univalent states share no valence")
	}
	if o.MemoLen() == 0 {
		t.Error("memo empty after queries")
	}
}

// TestValenceConnectedClassifier pins the ValenceConnected truth table.
func TestValenceConnectedClassifier(t *testing.T) {
	const both = valence.V0 | valence.V1
	cases := []struct {
		masks []uint8
		want  bool
	}{
		{nil, true},
		{[]uint8{valence.V0}, true},
		{[]uint8{0}, false},
		{[]uint8{valence.V0, valence.V0}, true},
		{[]uint8{valence.V1, valence.V1, valence.V1}, true},
		{[]uint8{valence.V0, valence.V1}, false},
		{[]uint8{valence.V0, both, valence.V1}, true},
		{[]uint8{valence.V0, 0, valence.V0}, false},
		{[]uint8{both}, true},
	}
	for i, c := range cases {
		if got := valence.ValenceConnected(c.masks); got != c.want {
			t.Errorf("case %d %v: got %v, want %v", i, c.masks, got, c.want)
		}
	}
}

// TestLayerActionsGrouping: Layer dedupes states and groups actions.
func TestLayerActionsGrouping(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewSt(p, n, 1)
	x := m.Initial([]int{0, 1, 1})
	states, actions := valence.Layer(m, x)
	if len(states) != len(actions) {
		t.Fatal("states/actions length mismatch")
	}
	total := 0
	seen := make(map[string]bool)
	for i, s := range states {
		if seen[s.Key()] {
			t.Error("duplicate state in layer")
		}
		seen[s.Key()] = true
		if len(actions[i]) == 0 {
			t.Error("state with no action")
		}
		total += len(actions[i])
	}
	if want := len(m.Successors(x)); total != want {
		t.Errorf("grouped %d actions, want %d", total, want)
	}
}

// TestCheckBivalentUndecided: where Lemma 3.1's premises hold, the check
// passes; where a protocol has already broken agreement (a state that is
// "bivalent" only because decided processes disagree), the conclusion fails
// and the checker flags it.
func TestCheckBivalentUndecided(t *testing.T) {
	const n, rounds = 3, 2
	p := protocols.FloodSet{Rounds: rounds}
	m := mobile.New(p, n)
	o := valence.NewOracle(m)

	// Premises hold: a genuinely bivalent pre-decision state.
	mixed := m.Initial([]int{0, 1, 1})
	if !o.Bivalent(mixed, rounds) {
		t.Fatal("mixed initial state should be bivalent")
	}
	if err := valence.CheckBivalentUndecided(o, mixed, rounds, 1); err != nil {
		t.Errorf("Lemma 3.1 check failed on a legitimate bivalent state: %v", err)
	}

	// Premises violated: drive FloodSet into disagreement. Inputs (1,1,0);
	// process 2 (the sole 0-holder) omits to {0,1} in round 1 and to {0}
	// in round 2: decisions are 1,0,0 — every process decided, mask = both.
	x := m.Initial([]int{1, 1, 0})
	y := successor(t, m, successor(t, m, x, "(2,[2])"), "(2,[1])")
	if !o.Bivalent(y, 0) {
		t.Fatal("schedule did not produce disagreement")
	}
	if err := valence.CheckBivalentUndecided(o, y, 0, 1); err == nil {
		t.Error("checker accepted a fully-decided 'bivalent' state (agreement already broken)")
	}
}

// TestOracleBivalentMonotonicityShrinksMemo exercises the bivalence
// shortcut across the E5 horizon schedule: certifying at a ladder of
// growing horizons (as the round-lower-bound experiment does when
// re-analyzing with larger bounds) must answer states already known
// bivalent from the per-id bitset instead of adding new (id, horizon) memo
// entries — one oracle across the schedule ends smaller than the sum of
// fresh per-horizon oracles, and answers must not change.
func TestOracleBivalentMonotonicityShrinksMemo(t *testing.T) {
	// FloodSet decides at round 2, so bivalence of the mixed-input inits
	// becomes visible at horizon 2; the schedule then grows past it.
	const n, tf, lo, hi = 4, 2, 2, 4
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, n, tf)
	inits := m.Inits()

	perHorizon := 0
	for h := lo; h <= hi; h++ {
		o := valence.NewOracle(m)
		for _, x := range inits {
			o.Valences(x, h)
		}
		perHorizon += o.MemoLen()
	}

	o := valence.NewOracle(m)
	for h := lo; h <= hi; h++ {
		for _, x := range inits {
			o.Valences(x, h)
		}
	}
	if o.MemoLen() >= perHorizon {
		t.Fatalf("schedule memo %d not smaller than per-horizon sum %d", o.MemoLen(), perHorizon)
	}

	for h := lo; h <= hi; h++ {
		ref := valence.NewOracle(m)
		for _, x := range inits {
			if got, want := o.Valences(x, h), ref.Valences(x, h); got != want {
				t.Fatalf("horizon %d: %02b != %02b for %s", h, got, want, x.Key())
			}
		}
	}
}

// TestOracleMemoGrowthAcrossSchedule pins the saving at its source: once a
// state is known bivalent at some horizon, querying it at every larger
// horizon adds no memo entries at all.
func TestOracleMemoGrowthAcrossSchedule(t *testing.T) {
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1)
	init := m.Initial([]int{0, 1, 1})
	o := valence.NewOracle(m)
	if !o.Bivalent(init, 2) {
		t.Fatal("mixed-input initial state should be bivalent at horizon 2")
	}
	before := o.MemoLen()
	for h := 3; h <= 7; h++ {
		if !o.Bivalent(init, h) {
			t.Fatalf("monotonicity violated at horizon %d", h)
		}
	}
	if got := o.MemoLen(); got != before {
		t.Errorf("larger-horizon queries grew the memo: %d -> %d", before, got)
	}
}

func TestWitnessKindStrings(t *testing.T) {
	want := map[valence.WitnessKind]string{
		valence.OK:                 "ok",
		valence.AgreementViolation: "agreement violation",
		valence.ValidityViolation:  "validity violation",
		valence.UndecidedAtBound:   "undecided at bound",
		valence.DecisionChanged:    "write-once decision changed",
		valence.WitnessKind(99):    "WitnessKind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	// SetSDiameter on a tiny set.
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	if d, conn := valence.SetSDiameter(m.Inits()[:2]); !conn || d != 1 {
		t.Errorf("SetSDiameter = (%d,%v)", d, conn)
	}
}
