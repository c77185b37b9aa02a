package syncmp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

func TestFailureFreeFloodSetRun(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewSt(p, n, 1)
	x := m.Initial([]int{1, 0, 1})
	// Two failure-free rounds: everyone floods, everyone decides min = 0.
	for r := 0; r < 2; r++ {
		x = syncmp.ApplyAction(p, x, 0, 0, true, true)
	}
	for i := 0; i < n; i++ {
		v, ok := x.Decided(i)
		if !ok || v != 0 {
			t.Errorf("process %d decided (%d,%v), want (0,true)", i, v, ok)
		}
	}
	if x.Round() != 2 {
		t.Errorf("Round() = %d, want 2", x.Round())
	}
}

func TestOmissionDropsMessages(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewSt(p, n, 1)
	x := m.Initial([]int{0, 1, 1})
	// Process 0 omits to everyone: nobody learns input 0 this round.
	y := syncmp.ApplyAction(p, x, 0, syncmp.OmitMask(n), true, true)
	if !y.FailedAt(0) {
		t.Error("process 0 not recorded as failed after omission")
	}
	if y.FailedAt(1) || y.FailedAt(2) {
		t.Error("innocent process recorded as failed")
	}
	// Locals of 1 and 2 must not contain value 0: their W = {1}.
	if y.Local(1) != y.Local(2) {
		t.Errorf("locals of 1 and 2 differ: %q vs %q", y.Local(1), y.Local(2))
	}
	// Process 0 received everything, so its W = {0,1}: local differs.
	if y.Local(0) == y.Local(1) {
		t.Error("process 0's local should differ (it saw its own 0)")
	}
	// Second round: 0 is silenced forever, 1 and 2 exchange and decide 1.
	z := syncmp.ApplyAction(p, y, 0, 0, true, true)
	for _, i := range []int{1, 2} {
		v, ok := z.Decided(i)
		if !ok || v != 1 {
			t.Errorf("process %d decided (%d,%v), want (1,true)", i, v, ok)
		}
	}
	// Process 0 itself decides 0 — but it is failed, so agreement among
	// non-failed processes is intact.
	v, ok := z.Decided(0)
	if !ok || v != 0 {
		t.Errorf("failed process 0 decided (%d,%v), want (0,true)", v, ok)
	}
}

func TestAgreeModuloAndSimilar(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewSt(p, n, 1)
	x := m.Initial([]int{0, 0, 0})
	y := m.Initial([]int{0, 0, 1})
	if !core.AgreeModulo(x, y, 2) {
		t.Error("initial states differing only in input 2 must agree modulo 2")
	}
	if core.AgreeModulo(x, y, 1) {
		t.Error("states differing in local 2 must not agree modulo 1")
	}
	j, ok := core.Similar(x, y)
	if !ok || j != 2 {
		t.Errorf("Similar = (%d,%v), want (2,true)", j, ok)
	}
	if _, ok := core.Similar(x, x); !ok {
		t.Error("a state must be similar to itself (agree modulo any j)")
	}
}

func TestStLayeringCapsFailures(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewSt(p, n, tt)
	x := m.Initial([]int{0, 1, 0})
	// Burn the failure budget.
	y := syncmp.ApplyAction(p, x, 1, syncmp.OmitMask(1), true, true)
	succs := m.Successors(y)
	if len(succs) != 1 || succs[0].Action != "noop" {
		t.Fatalf("S^t after t failures: got %d successors (first %q), want only noop",
			len(succs), succs[0].Action)
	}
}

func TestS1LayerSize(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewS1(p, n)
	x := m.Initial([]int{0, 1, 0})
	succs := m.Successors(x)
	// noop + n*n omission actions (j in 0..n-1, k in 1..n).
	if want := 1 + n*n; len(succs) != want {
		t.Errorf("len(S1(x)) = %d, want %d", len(succs), want)
	}
	seen := make(map[string]bool)
	for _, s := range succs {
		if seen[s.Action] {
			t.Errorf("duplicate action label %q", s.Action)
		}
		seen[s.Action] = true
	}
}

func TestInitsEnumerateCon0(t *testing.T) {
	const n = 3
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewSt(p, n, 1)
	inits := m.Inits()
	if len(inits) != 1<<n {
		t.Fatalf("len(Inits()) = %d, want %d", len(inits), 1<<n)
	}
	keys := make(map[string]bool)
	for _, x := range inits {
		if keys[x.Key()] {
			t.Errorf("duplicate initial state %q", x.Key())
		}
		keys[x.Key()] = true
		if x.EnvKey() != inits[0].EnvKey() {
			t.Error("initial states must share the environment state")
		}
		for i := 0; i < n; i++ {
			if x.FailedAt(i) {
				t.Error("no process may be failed at an initial state")
			}
		}
	}
}

func TestStateKeyDistinguishesFailedSet(t *testing.T) {
	p := protocols.FullInfo{}
	locals := []string{"a", "b", "c"}
	x := syncmp.NewState(p, 1, locals, 0b001, true, nil)
	y := syncmp.NewState(p, 1, locals, 0b010, true, nil)
	if x.Key() == y.Key() {
		t.Error("states with different failed sets must have different keys")
	}
	// In the mobile flavor (trackEnv=false) the failed set must be 0 and
	// the env key carries only the round.
	mx := syncmp.NewState(p, 1, locals, 0, false, nil)
	my := syncmp.NewState(p, 2, locals, 0, false, nil)
	if mx.EnvKey() == my.EnvKey() {
		t.Error("round must be part of the environment")
	}
}

// TestGeneralOmissionVariant: the S^t analysis is insensitive to whether
// failed processes also stop receiving — FloodSet(t+1) certifies, the
// t-round variant is refuted — while the failed process's own state
// genuinely differs between the two failure modes.
func TestGeneralOmissionVariant(t *testing.T) {
	const n, tt = 3, 1
	good := syncmp.NewStGeneral(protocols.FloodSet{Rounds: tt + 1}, n, tt)
	w, err := valence.Certify(nil, good, tt+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != valence.OK {
		t.Errorf("FloodSet(t+1) under general omission: %v (%s)", w.Kind, w.Detail)
	}
	fast := syncmp.NewStGeneral(protocols.FloodSet{Rounds: tt}, n, tt)
	w, err = valence.Certify(nil, fast, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == valence.OK {
		t.Error("FloodSet(t) certified under general omission")
	}

	// The failure modes differ observably at the failed process: under
	// sending omission it keeps receiving; under general omission its
	// round-2 inbox is empty. (Full information makes the difference
	// visible; FloodSet's saturated W would mask it.)
	p := protocols.FullInfo{}
	send := syncmp.NewSt(p, n, tt)
	x := send.Initial([]int{0, 1, 1})
	// Round 1: process 0 fails omitting to everyone; round 2: failure-free.
	y1 := syncmp.ApplyActionMode(p, x, 0, syncmp.OmitMask(n), true, true, false)
	y2 := syncmp.ApplyActionMode(p, y1, 0, 0, true, true, false)
	g1 := syncmp.ApplyActionMode(p, x, 0, syncmp.OmitMask(n), true, true, true)
	g2 := syncmp.ApplyActionMode(p, g1, 0, 0, true, true, true)
	if y2.Local(0) == g2.Local(0) {
		t.Error("failed process's state should differ between omission modes")
	}
	// Non-failed processes are unaffected by the mode.
	for i := 1; i < n; i++ {
		if y2.Local(i) != g2.Local(i) {
			t.Errorf("non-failed process %d differs across omission modes", i)
		}
	}
}
