package protocols_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asyncmp"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// round runs one synchronous round of p from locals: every process emits
// its messages, drop (nil: none) loses some, and every process delivers
// what arrived.
func round(p proto.SyncProtocol, locals []string, drop func(from, to int) bool) []string {
	n := len(locals)
	sends := make([][]string, n)
	for i, l := range locals {
		sends[i] = p.Send(l)
	}
	next := make([]string, n)
	for j := range locals {
		in := make([]string, n)
		for i := range locals {
			if i != j && (drop == nil || !drop(i, j)) {
				in[i] = sends[i][j]
			}
		}
		next[j] = p.Deliver(locals[j], in)
	}
	return next
}

func TestFloodSetFailureFree(t *testing.T) {
	p := protocols.FloodSet{Rounds: 2}
	locals := []string{p.Init(3, 0, 1), p.Init(3, 1, 0), p.Init(3, 2, 1)}
	for r := 0; r < 2; r++ {
		locals = round(p, locals, nil)
	}
	for i, l := range locals {
		v, ok := p.Decide(l)
		if !ok || v != 0 {
			t.Errorf("process %d: Decide = (%d,%v), want (0,true)", i, v, ok)
		}
	}
}

func TestFloodSetStateCanonical(t *testing.T) {
	// Two processes having seen the same value set in the same round have
	// equal states regardless of id — FloodSet is anonymous after Init.
	p := protocols.FloodSet{Rounds: 2}
	a := p.Init(3, 0, 1)
	b := p.Init(3, 2, 1)
	if a != b {
		t.Errorf("same-input initial states differ: %q vs %q", a, b)
	}
}

func TestFloodSetIgnoresMalformedMessages(t *testing.T) {
	p := protocols.FloodSet{Rounds: 1}
	st := p.Init(2, 0, 1)
	next := p.Deliver(st, []string{"", "garbage-not-an-intset-%%%"})
	if v, ok := p.Decide(next); !ok || v != 1 {
		t.Errorf("Decide after garbage = (%d,%v), want (1,true)", v, ok)
	}
}

func TestEIGMatchesFloodSetDecisions(t *testing.T) {
	// Under identical failure-free schedules EIG and FloodSet decide the
	// same value (min of all inputs).
	f := func(in0, in1, in2 bool) bool {
		inputs := []int{b2i(in0), b2i(in1), b2i(in2)}
		eig := protocols.EIG{Rounds: 2}
		fs := protocols.FloodSet{Rounds: 2}
		el := []string{}
		fl := []string{}
		for i, in := range inputs {
			el = append(el, eig.Init(3, i, in))
			fl = append(fl, fs.Init(3, i, in))
		}
		for r := 0; r < 2; r++ {
			el = round(eig, el, nil)
			fl = round(fs, fl, nil)
		}
		for i := range inputs {
			ev, eok := eig.Decide(el[i])
			fv, fok := fs.Decide(fl[i])
			if !eok || !fok || ev != fv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEIGCertifiedAndRefuted(t *testing.T) {
	const n, tt = 3, 1
	good := syncmp.NewSt(protocols.EIG{Rounds: tt + 1}, n, tt)
	w, err := valence.Certify(nil, good, tt+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != valence.OK {
		t.Errorf("EIG(t+1) refuted: %v (%s)", w.Kind, w.Detail)
	}
	fast := syncmp.NewSt(protocols.EIG{Rounds: tt}, n, tt)
	w, err = valence.Certify(nil, fast, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == valence.OK {
		t.Error("EIG(t) certified, contradicting Corollary 6.3")
	}
}

func TestEIGStateDistinguishesProvenance(t *testing.T) {
	// EIG's tree remembers who relayed what; two different-provenance
	// executions merge in FloodSet but stay distinct in EIG.
	eig := protocols.EIG{Rounds: 2}
	l := []string{eig.Init(3, 0, 0), eig.Init(3, 1, 1), eig.Init(3, 2, 1)}
	// Schedule A: process 1's message to 0 dropped in round 1.
	a := round(eig, l, func(from, to int) bool { return from == 1 && to == 0 })
	// Schedule B: process 2's message to 0 dropped in round 1.
	b := round(eig, l, func(from, to int) bool { return from == 2 && to == 0 })
	if a[0] == b[0] {
		t.Error("EIG states merged across different provenance")
	}
	fs := protocols.FloodSet{Rounds: 2}
	fl := []string{fs.Init(3, 0, 0), fs.Init(3, 1, 1), fs.Init(3, 2, 1)}
	fa := round(fs, fl, func(from, to int) bool { return from == 1 && to == 0 })
	fb := round(fs, fl, func(from, to int) bool { return from == 2 && to == 0 })
	if fa[0] != fb[0] {
		t.Error("FloodSet should merge these executions (same value sets)")
	}
}

func TestConstantDeciderValidityViolation(t *testing.T) {
	const n, tt = 3, 1
	m := syncmp.NewSt(protocols.ConstantDecider{Value: 0}, n, tt)
	w, err := valence.Certify(nil, m, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != valence.ValidityViolation {
		t.Errorf("Certify = %v, want validity violation", w.Kind)
	}
	if w.Exec == nil || !strings.Contains(w.Detail, "nobody's input") {
		t.Errorf("witness detail = %q", w.Detail)
	}
}

func TestFlickerDeciderWriteOnceViolation(t *testing.T) {
	const n, tt = 3, 1
	m := syncmp.NewSt(protocols.FlickerDecider{}, n, tt)
	w, err := valence.Certify(nil, m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != valence.DecisionChanged {
		t.Errorf("Certify = %v, want write-once violation", w.Kind)
	}
}

func TestFullInfoDistinguishesEverything(t *testing.T) {
	// Full-information locals differ whenever any received message
	// differed — here, dropping different messages.
	p := protocols.FullInfo{}
	l := []string{p.Init(3, 0, 0), p.Init(3, 1, 1), p.Init(3, 2, 1)}
	a := round(p, l, func(from, to int) bool { return from == 1 && to == 0 })
	b := round(p, l, func(from, to int) bool { return from == 2 && to == 0 })
	if a[0] == b[0] {
		t.Error("full-information states merged")
	}
	if a[1] != b[1] {
		// Process 1 received the same messages in both schedules... except
		// schedule A dropped 1's message to 0, which does not affect 1.
		t.Error("unaffected process's state changed")
	}
}

func TestDecideRule(t *testing.T) {
	p := protocols.DecideRule{
		P:        protocols.FullInfo{},
		RuleName: "never",
		Rule:     func(string) (int, bool) { return 0, false },
	}
	if !strings.Contains(p.Name(), "fullinfo+never") {
		t.Errorf("Name() = %q", p.Name())
	}
	st := p.Init(2, 0, 1)
	if _, ok := p.Decide(st); ok {
		t.Error("never-rule decided")
	}
	if got := p.Deliver(st, []string{"", "x"}); got == st {
		t.Error("Deliver did not advance the state")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestMPCoordinatorRefuted: the rotating-coordinator heuristic is refuted
// under the permutation layering — like every deterministic asynchronous
// consensus candidate — with a concrete witness.
func TestMPCoordinatorRefuted(t *testing.T) {
	const n = 3
	for _, phases := range []int{1, 2} {
		m := asyncmp.New(protocols.MPCoordinator{Phases: phases}, n)
		w, err := valence.Certify(nil, m, phases, 4_000_000)
		if err != nil {
			t.Fatalf("phases=%d: %v", phases, err)
		}
		if w.Kind == valence.OK {
			t.Errorf("phases=%d: MPCoordinator certified, contradicting FLP", phases)
		}
	}
}

// TestMPCoordinatorAdoptsEstimate: in a clean sequential schedule the
// phase-0 coordinator's value propagates to everyone.
func TestMPCoordinatorAdoptsEstimate(t *testing.T) {
	const n, phases = 3, 3
	p := protocols.MPCoordinator{Phases: phases}
	m := asyncmp.New(p, n)
	x := m.Initial([]int{1, 0, 0})
	for r := 0; r < phases; r++ {
		x = m.Sequential(x, []int{0, 1, 2})
	}
	for i := 0; i < n; i++ {
		v, ok := p.Decide(x.ProtocolState(i))
		if !ok || v != 1 {
			t.Errorf("process %d decided (%d,%v), want (1,true): coordinator 0's value", i, v, ok)
		}
	}
}
