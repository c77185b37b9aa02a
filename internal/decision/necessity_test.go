package decision_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// TestNecessityOnSolvingProtocol is the necessity direction of Theorem 7.2
// measured live: FloodSet(1 round) solves 2-set agreement in M^mf (see
// E10), so the decided-output complexes over every similarity-connected
// set of initial states must be 1-thick connected.
func TestNecessityOnSolvingProtocol(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 1}
	m := mobile.New(p, n)
	inits := m.Inits() // binary inputs: 8 similarity-connected candidates
	r, err := decision.CheckThickNecessity(m, inits, n, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Subsets == 0 {
		t.Fatal("no connected subsets examined")
	}
	if r.Connected != r.Subsets {
		t.Errorf("thick connectivity failed on %d of %d subsets (first: %v)",
			r.Subsets-r.Connected, r.Subsets, r.FirstFailure)
	}
}

// TestNecessityMatchesComplexReference pins the kernel-backed report to
// the complex-per-subset reference field for field: Subsets, Connected and
// FirstFailure. The configurations are TestNecessityOnSolvingProtocol's,
// where every subset is connected, and ones where subsets fail: k = 0,
// and consensus by FloodSet(2) in S^t, whose all-0 and all-1 outputs are
// not 1-thick connected.
func TestNecessityMatchesComplexReference(t *testing.T) {
	const n = 3
	mobile1 := mobile.New(protocols.FloodSet{Rounds: 1}, n)
	syncst := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, n, 1)
	for _, c := range []struct {
		name         string
		m            core.Model
		k, depth     int
		wantFailures bool
	}{
		{"mobile-floodset1-k1", mobile1, 1, 1, false},
		{"mobile-floodset1-k0", mobile1, 0, 1, true},
		{"syncst-floodset2-k0", syncst, 0, 2, true},
		{"syncst-floodset2-k1", syncst, 1, 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			inits := c.m.Inits()
			got, err := decision.CheckThickNecessity(c.m, inits, n, c.k, c.depth, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := decision.CheckThickNecessityRef(c.m, inits, n, c.k, c.depth, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kernel report %+v != reference %+v", got, want)
			}
			if failed := got.Connected < got.Subsets; failed != c.wantFailures {
				t.Fatalf("%d of %d subsets connected; want failures = %v", got.Connected, got.Subsets, c.wantFailures)
			}
		})
	}
}

// TestNecessityRejectsTooMany guards the subset-enumeration cap.
func TestNecessityRejectsTooMany(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 1}
	m := mobile.New(p, n)
	inits := make([]core.State, 17)
	for i := range inits {
		inits[i] = m.Initial([]int{0, 0, 0})
	}
	if _, err := decision.CheckThickNecessity(m, inits, n, 1, 1, 0); err == nil {
		t.Error("want cap error")
	}
}
