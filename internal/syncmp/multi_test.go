package syncmp_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestMultiSuccessorCount checks the action enumeration: noop + singles +
// pairs within the budget.
func TestMultiSuccessorCount(t *testing.T) {
	const n, tt, c = 4, 2, 2
	p := protocols.FloodSet{Rounds: tt + 1}
	m := syncmp.NewStMulti(p, n, tt, c)
	x := m.Initial([]int{0, 1, 1, 1})
	succs := m.Successors(x)
	// noop + n*n singles + C(n,2)*n*n pairs.
	want := 1 + n*n + (n*(n-1)/2)*n*n
	if len(succs) != want {
		t.Errorf("|S(x)| = %d, want %d", len(succs), want)
	}
	seen := make(map[string]bool)
	for _, s := range succs {
		if seen[s.Action] {
			t.Errorf("duplicate action %q", s.Action)
		}
		seen[s.Action] = true
	}
	// After exhausting the budget in one round, only noop remains.
	y := m.ApplyMulti(x, []syncmp.Omission{{J: 0, K: n}, {J: 1, K: n}})
	if got := m.Successors(y); len(got) != 1 || got[0].Action != "noop" {
		t.Errorf("after budget exhausted: %d successors", len(got))
	}
}

// TestMultiMatchesSingleWhenC1: with maxPerRound=1 the multi model's layer
// must produce exactly the S^t layer states.
func TestMultiMatchesSingleWhenC1(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: tt + 1}
	single := syncmp.NewSt(p, n, tt)
	multi := syncmp.NewStMulti(p, n, tt, 1)
	xs := single.Initial([]int{0, 1, 1})
	xm := multi.Initial([]int{0, 1, 1})
	if xs.Key() != xm.Key() {
		t.Fatal("initial states differ")
	}
	keys := func(succs []core.Succ) map[string]bool {
		out := make(map[string]bool)
		for _, s := range succs {
			out[s.State.Key()] = true
		}
		return out
	}
	ks, km := keys(single.Successors(xs)), keys(multi.Successors(xm))
	if len(ks) != len(km) {
		t.Fatalf("layer sizes differ: %d vs %d", len(ks), len(km))
	}
	for k := range ks {
		if !km[k] {
			t.Fatal("multi layer missing an S^t state")
		}
	}
}

// fieldOf explores m to depth and sweeps its valence field: a node at
// depth d holds its valence within depth-d layers.
func fieldOf(t *testing.T, m core.Model, depth int) *valence.Field {
	t.Helper()
	g, err := core.ExploreIDCtx(nil, m, depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWastedFaults is the Section 6 closing discussion (Dwork–Moses),
// measured: in the multi-failure model a bivalent state at round r must
// have failed count f with r <= f <= t-1 — each round of a bivalent prefix
// spends at least one failure, a state with t failures is univalent, and
// an environment that wasted w faults (f = r + w) loses exactly w rounds of
// bivalence (r <= t-1-w).
func TestWastedFaults(t *testing.T) {
	const n, tt, c = 4, 2, 2
	rounds := tt + 1
	p := protocols.FloodSet{Rounds: rounds}
	m := syncmp.NewStMulti(p, n, tt, c)
	f := fieldOf(t, m, rounds)
	bivalentSeen := false
	wastedSeen := false
	for u, x := range f.Graph().States {
		s := x.(*syncmp.State)
		r := s.Round()
		if !f.Bivalent(uint32(u)) {
			continue
		}
		bivalentSeen = true
		f := s.FailedCount()
		if f < r {
			t.Errorf("bivalent state at round %d with only %d failures (needs >= %d)", r, f, r)
		}
		if f > tt-1 {
			t.Errorf("bivalent state with %d failures; budget-exhausted states are univalent", f)
		}
		if f > r {
			wastedSeen = true
		}
	}
	if !bivalentSeen {
		t.Error("no bivalent states found")
	}
	// At round 0 states with f=0 only; waste (f>r) first appears at round
	// 1 with a double failure — but then f=2=t makes it univalent for t=2.
	// So with t=2 no bivalent wasted state can exist; assert that.
	if wastedSeen {
		t.Error("t=2: a wasted-fault state stayed bivalent, contradicting the waste bound")
	}
}

// TestWastedFaultsWithSlack: with t=3 (n=5) a single wasted fault is
// affordable: bivalent states with f = r+1 exist at round 1 but none at
// round t-1 = 2 with f = 3.
func TestWastedFaultsWithSlack(t *testing.T) {
	if testing.Short() {
		t.Skip("larger exploration")
	}
	const n, tt, c = 5, 3, 2
	rounds := tt + 1
	p := protocols.FloodSet{Rounds: rounds}
	m := syncmp.NewStMulti(p, n, tt, c)
	// Two rounds suffice for the claim, but valences look ahead to the
	// decision bound.
	f := fieldOf(t, m, rounds)
	wasted := 0
	for u, x := range f.Graph().States {
		s := x.(*syncmp.State)
		r := s.Round()
		if r == 0 || r > 2 || !f.Bivalent(uint32(u)) {
			continue
		}
		f := s.FailedCount()
		if f < r || f > tt-1 {
			t.Errorf("bivalent at round %d with %d failures violates r <= f <= t-1", r, f)
		}
		if f == r+1 {
			wasted++
		}
	}
	if wasted == 0 {
		t.Error("expected bivalent states with one wasted fault at t=3")
	}
}

// TestMultiActionLabels sanity-checks the combined-action labels.
func TestMultiActionLabels(t *testing.T) {
	const n, tt, c = 4, 2, 2
	p := protocols.FloodSet{Rounds: tt + 1}
	m := syncmp.NewStMulti(p, n, tt, c)
	x := m.Initial([]int{0, 1, 1, 1})
	found := false
	for _, s := range m.Successors(x) {
		if strings.Contains(s.Action, "+") {
			found = true
			st := s.State.(*syncmp.State)
			if st.FailedCount() != 2 {
				t.Errorf("double action %q recorded %d failures", s.Action, st.FailedCount())
			}
		}
	}
	if !found {
		t.Error("no double-failure actions emitted")
	}
}
