package valence_test

import (
	"fmt"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/shmem"
	"repro/internal/simplex"
	"repro/internal/snapshot"
	"repro/internal/syncmp"
	"repro/internal/tasks"
	"repro/internal/valence"
)

// certifyCase is one model certified to a bound.
type certifyCase struct {
	name  string
	m     func() core.Model
	bound int
}

// gradedCases are the EXPERIMENTS.md refutation rows: E2 (FloodSet under
// the mobile-failures adversary), E3 (shared memory, undecided at bound),
// E5 (FloodSet round lower bound), plus flawed protocols covering the
// validity and write-once witness kinds, and clean runs that certify OK.
var gradedCases = []certifyCase{
	// E2 rows: mobile failures defeat FloodSet.
	{"e2-mobile-n3-b2", func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }, 2},
	{"e2-mobile-n3-b3", func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 3}, 3) }, 3},
	{"e2-mobile-n4-b2", func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 4) }, 2},
	// E3 rows: one-phase shared-memory protocols stay undecided.
	{"e3-shmem-n3-p1", func() core.Model { return shmem.New(protocols.SMVote{Phases: 1}, 3) }, 1},
	{"e3-shmem-n3-p2", func() core.Model { return shmem.New(protocols.SMVote{Phases: 1}, 3) }, 2},
	// E5 rows: FloodSet with too few rounds for t failures.
	{"e5-syncst-n3-t1-fast", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 1}, 3, 1) }, 1},
	{"e5-syncst-n4-t1-fast", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 1}, 4, 1) }, 1},
	{"e5-syncst-n4-t2-fast", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 4, 2) }, 2},
	// Validity and write-once violations.
	{"flawed-constant", func() core.Model { return syncmp.NewSt(protocols.ConstantDecider{Value: 1}, 3, 1) }, 1},
	{"flawed-flicker", func() core.Model { return syncmp.NewSt(protocols.FlickerDecider{}, 3, 1) }, 2},
	// Clean certifications: both engines must agree on OK and visits.
	{"ok-syncst-n3-t1", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1) }, 2},
	{"ok-syncst-n4-t2", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 4, 2) }, 3},
	// FloodSet(t+1) at n = 5, the largest configuration checked here.
	{"ok-syncst-n5-t2", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 5, 2) }, 3},
}

// nonGradedCases are the asynchronous families, whose graphs have
// same-depth shortcut edges, at n = 2 and 3 up to bound 4 with a protocol
// of as many phases as layers, the benchmark's two asynchronous
// configurations, and ownInput from uniform inputs, which certifies OK and
// so walks every lag.
func nonGradedCases() []certifyCase {
	families := []struct {
		name string
		mk   func(phases, n int) core.Model
	}{
		{"asyncmp", func(p, n int) core.Model { return asyncmp.New(protocols.MPFlood{Phases: p}, n) }},
		{"asyncsynchronic", func(p, n int) core.Model { return asyncmp.NewSynchronic(protocols.MPFlood{Phases: p}, n) }},
		{"shmem", func(p, n int) core.Model { return shmem.New(protocols.SMVote{Phases: p}, n) }},
		{"snapshot", func(p, n int) core.Model { return snapshot.New(protocols.SMVote{Phases: p}, n) }},
	}
	var out []certifyCase
	for _, f := range families {
		for n := 2; n <= 3; n++ {
			for b := 1; b <= 4; b++ {
				mk, n, b := f.mk, n, b
				out = append(out, certifyCase{fmt.Sprintf("%s-n%d-b%d", f.name, n, b), func() core.Model { return mk(b, n) }, b})
			}
		}
	}
	out = append(out,
		certifyCase{"bench-asyncmp-p3-n3", func() core.Model { return asyncmp.New(protocols.MPFlood{Phases: 3}, 3) }, 3},
		certifyCase{"bench-asyncsynchronic-p4-n3", func() core.Model { return asyncmp.NewSynchronic(protocols.MPFlood{Phases: 4}, 3) }, 4},
	)
	for _, n := range []int{2, 3} {
		b := 6 - n
		out = append(out,
			certifyCase{fmt.Sprintf("own-input-asyncmp-n%d-b%d", n, b), func() core.Model { return uniformOnly(asyncmp.New(ownInput{}, n)) }, b},
			certifyCase{fmt.Sprintf("own-input-asyncsynchronic-n%d-b%d", n, b), func() core.Model { return uniformOnly(asyncmp.NewSynchronic(ownInput{}, n)) }, b},
		)
	}
	return out
}

// uniformOnly restricts m to its initial states with uniform inputs.
func uniformOnly(m core.Model) core.Model {
	var uniform []core.State
	for _, x := range m.Inits() {
		if isUniform(x) {
			uniform = append(uniform, x)
		}
	}
	return core.WithInits(m, uniform)
}

// TestCertifyGraphMatchesRecursive pins the engine to the recursive
// reference bit-for-bit — kind, detail, witness execution (init, every
// action, every state), and the Explored visit count — on graded graphs.
func TestCertifyGraphMatchesRecursive(t *testing.T) {
	for _, tc := range gradedCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := valence.CertifyRef(tc.m(), tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := valence.Certify(nil, tc.m(), tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			witnessesIdentical(t, want, got)
		})
	}
}

// TestCertifyNonGradedMatchesRecursive is the same pin on graphs that are
// not graded, where a node is reached at several run lengths and the
// engine keeps one visited bit per lag.
func TestCertifyNonGradedMatchesRecursive(t *testing.T) {
	graded := 0
	for _, tc := range nonGradedCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := valence.CertifyRef(tc.m(), tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			g, err := core.ExploreIDCtx(nil, tc.m(), tc.bound, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if g.Graded() {
				graded++
			}
			got, err := valence.CertifyGraph(nil, g, 0)
			if err != nil {
				t.Fatal(err)
			}
			witnessesIdentical(t, want, got)
		})
	}
	if graded > len(nonGradedCases())/2 {
		t.Errorf("%d of the non-graded rows explored graded graphs", graded)
	}
}

// TestCertifyGraphBudget checks the visit budget surfaces the same ErrBudget
// as the recursive certifier.
func TestCertifyGraphBudget(t *testing.T) {
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1)
	_, err := valence.Certify(nil, m, 2, 5)
	if err == nil {
		t.Fatal("budget of 5 visits did not error")
	}
	if got, want := err.Error(), fmt.Sprintf("after %d visits: %v", 6, valence.ErrBudget); got != want {
		t.Errorf("error %q, want %q", got, want)
	}
	if _, rerr := valence.CertifyRef(m, 2, 5); rerr == nil || rerr.Error() != err.Error() {
		t.Errorf("reference error %v, want %v", rerr, err)
	}
}

// TestCertifyGraphNotGraded: a graph with same-depth shortcut edges is
// certified, not refused, with the reference's verdict.
func TestCertifyGraphNotGraded(t *testing.T) {
	// asyncmp at n=2 produces same-depth shortcut edges (see field tests).
	m := asyncmp.New(protocols.MPFlood{Phases: 2}, 2)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Graded() {
		t.Fatal("model graph unexpectedly graded")
	}
	got, err := valence.CertifyGraph(nil, g, 0)
	if err != nil {
		t.Fatalf("CertifyGraph on a non-graded graph: %v", err)
	}
	want, err := valence.CertifyRef(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	witnessesIdentical(t, want, got)
}

// ternaryInits builds the 3^n ternary-input initial states of a model.
func ternaryInits(n int, initial func([]int) core.State) []core.State {
	var out []core.State
	total := 1
	for i := 0; i < n; i++ {
		total *= 3
	}
	for a := 0; a < total; a++ {
		inputs := make([]int, n)
		for i, v := 0, a; i < n; i, v = i+1, v/3 {
			inputs[i] = v % 3
		}
		out = append(out, initial(inputs))
	}
	return out
}

// TestCertifyTaskMatchesRecursive pins decision.CertifyTask to the
// recursive task reference — kind, detail, witness and Explored — on every
// configuration of the decision package's certification tests, E10's two
// among them.
func TestCertifyTaskMatchesRecursive(t *testing.T) {
	mob := mobile.New(protocols.FloodSet{Rounds: 1}, 3)
	mobTernary := ternaryInits(3, func(in []int) core.State { return mob.Initial(in) })
	two := syncmp.NewStMulti(protocols.FloodSet{Rounds: 1}, 5, 2, 2)
	twoWitness := []core.State{two.Initial([]int{2, 2, 2, 0, 1})}
	one := syncmp.NewStMulti(protocols.FloodSet{Rounds: 1}, 5, 2, 1)
	flicker := syncmp.NewSt(protocols.FlickerDecider{}, 3, 1)
	cases := []struct {
		name  string
		m     core.Model
		inits []core.State
		delta simplex.DeltaFunc
		bound int
	}{
		{"mobile-2set-ternary", mob, mobTernary, tasks.KSetAgreement(3, 2).Problem.Delta, 1},
		{"mobile-consensus-ternary", mob, mobTernary, tasks.BinaryConsensus(3).Problem.Delta, 1},
		{"multi2-2set-witness", two, twoWitness, tasks.KSetAgreement(5, 2).Problem.Delta, 1},
		{"multi1-2set-ternary", one, ternaryInits(5, func(in []int) core.State { return one.Initial(in) }), tasks.KSetAgreement(5, 2).Problem.Delta, 1},
		{"multi2-3set-witness", two, twoWitness, tasks.KSetAgreement(5, 3).Problem.Delta, 1},
		{"mobile-identity", mob, []core.State{mob.Initial([]int{0, 1, 1})}, tasks.Identity(3).Problem.Delta, 1},
		{"flicker-write-once", flicker, []core.State{flicker.Initial([]int{0, 0, 0})}, tasks.KSetAgreement(3, 3).Problem.Delta, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := certifyTaskRef(tc.m, tc.inits, tc.delta, tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decision.CertifyTask(nil, tc.m, tc.inits, tc.delta, tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			taskWitnessesIdentical(t, want, got)
		})
	}
}
