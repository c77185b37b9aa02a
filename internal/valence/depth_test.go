package valence_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestDecisionDepthFloodSet: plain FloodSet always decides exactly at its
// round bound — a flat histogram at t+1.
func TestDecisionDepthFloodSet(t *testing.T) {
	const n, tt = 3, 1
	rounds := tt + 1
	m := syncmp.NewSt(protocols.FloodSet{Rounds: rounds}, n, tt)
	inits := []core.State{m.Initial([]int{0, 1, 1})}
	d, err := valence.MeasureDecisionDepth(m, inits, rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Undecided != 0 {
		t.Errorf("%d undecided runs for a certified protocol", d.Undecided)
	}
	if d.Min != rounds || d.Max != rounds {
		t.Errorf("decision depths [%d,%d], want exactly %d", d.Min, d.Max, rounds)
	}
}

// TestDecisionDepthEarlyFloodSet: the early-deciding variant shows the
// min(f+2, t+1) shape — some runs decide at layer 2, the worst case at
// t+1, and nothing beyond.
func TestDecisionDepthEarlyFloodSet(t *testing.T) {
	const n, tt = 3, 1
	rounds := tt + 1
	m := syncmp.NewSt(protocols.EarlyFloodSet{MaxRounds: rounds}, n, tt)
	inits := []core.State{m.Initial([]int{0, 1, 1})}
	d, err := valence.MeasureDecisionDepth(m, inits, rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Undecided != 0 {
		t.Errorf("%d undecided runs for a certified protocol", d.Undecided)
	}
	if d.Min != 2 {
		t.Errorf("earliest decision at layer %d, want 2", d.Min)
	}
	if d.Max > rounds {
		t.Errorf("latest decision at layer %d, beyond the bound %d", d.Max, rounds)
	}
	if d.Histogram[2] == 0 {
		t.Error("no runs decided at layer 2; early stopping never fired")
	}
}

// TestDecisionDepthBudget: the run cap is honored.
func TestDecisionDepthBudget(t *testing.T) {
	const n, tt = 3, 1
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, n, tt)
	if _, err := valence.MeasureDecisionDepth(m, m.Inits(), 2, 3); err == nil {
		t.Error("want budget error")
	}
}

// TestDecisionDepthMatchesRecursive pins MeasureDecisionDepth, which
// follows runs along the explored graph's edges, to the recursive walker
// over the successor function: the same DecisionDepth from initial states
// given out of order and repeated, and the same "after N runs" error under
// a run cap, in SyncSt, MobileS1 and asynchronous message passing.
func TestDecisionDepthMatchesRecursive(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mk    func() core.Model
		bound int
	}{
		{"sync-st-floodset", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1) }, 2},
		{"sync-st-early", func() core.Model { return syncmp.NewSt(protocols.EarlyFloodSet{MaxRounds: 2}, 3, 1) }, 2},
		{"mobile-s1", func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }, 2},
		{"asyncmp", func() core.Model { return asyncmp.New(protocols.MPFlood{Phases: 2}, 3) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all := tc.mk().Inits()
			inits := []core.State{all[5], all[0], all[5], all[3]}
			want, err := valence.MeasureDecisionDepthRef(tc.mk(), inits, tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := valence.MeasureDecisionDepth(tc.mk(), inits, tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decision depth %+v, want %+v", got, want)
			}
			if want.Runs < 4 {
				t.Fatalf("%d runs: too few to cap", want.Runs)
			}
			t.Logf("%d runs, decided at [%d,%d], %d undecided", want.Runs, want.Min, want.Max, want.Undecided)
			limit := want.Runs / 2
			_, wantErr := valence.MeasureDecisionDepthRef(tc.mk(), inits, tc.bound, limit)
			_, gotErr := valence.MeasureDecisionDepth(tc.mk(), inits, tc.bound, limit)
			if !errors.Is(wantErr, valence.ErrBudget) || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("capped at %d runs: err %v, want %v", limit, gotErr, wantErr)
			}
		})
	}
}

// TestCertifyFromMultivalued: ternary consensus obeys the same t+1 story —
// FloodSet(t+1) certifies over the 3^n ternary initial states, FloodSet(t)
// is refuted.
func TestCertifyFromMultivalued(t *testing.T) {
	const n, tt = 3, 1
	var inits []core.State
	build := func(m *syncmp.Model) []core.State {
		inits = inits[:0]
		for a := 0; a < 27; a++ {
			v := a
			in := make([]int, n)
			for i := 0; i < n; i++ {
				in[i] = v % 3
				v /= 3
			}
			inits = append(inits, m.Initial(in))
		}
		return inits
	}
	good := syncmp.NewSt(protocols.FloodSet{Rounds: tt + 1}, n, tt)
	w, err := valence.Certify(nil, core.WithInits(good, build(good)), tt+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != valence.OK {
		t.Errorf("ternary FloodSet(t+1): %v (%s)", w.Kind, w.Detail)
	}
	fast := syncmp.NewSt(protocols.FloodSet{Rounds: tt}, n, tt)
	w, err = valence.Certify(nil, core.WithInits(fast, build(fast)), tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == valence.OK {
		t.Error("ternary FloodSet(t) certified, contradicting Corollary 6.3")
	}
}
