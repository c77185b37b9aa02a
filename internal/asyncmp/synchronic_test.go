package asyncmp_test

import (
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/valence"
)

// TestSynchronicSimilarityChainMP mirrors the shared-memory Lemma 5.3
// structure in message passing: x(j,k) and x(j,k+1) differ only in the
// boundary process's receive stage, so they are similar; and x(j,0) is
// j-independent (all sends complete before any receive).
func TestSynchronicSimilarityChainMP(t *testing.T) {
	const n = 3
	m := asyncmp.NewSynchronic(protocols.MPFullInfo{}, n)
	x := m.Initial([]int{0, 1, 0})
	base := m.Apply(x, 0, 0)
	for j := 1; j < n; j++ {
		if got := m.Apply(x, j, 0); got.Key() != base.Key() {
			t.Errorf("x(%d,0) differs from x(0,0)", j)
		}
	}
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			a, b := m.Apply(x, j, k), m.Apply(x, j, k+1)
			if a.Key() == b.Key() {
				continue // boundary process is j itself
			}
			if !core.AgreeModulo(a, b, k) {
				t.Errorf("x(%d,%d) and x(%d,%d) do not agree modulo %d", j, k, j, k+1, k)
			}
		}
	}
}

// TestSynchronicBridgeMP: the Lemma 5.3 bridge carries over verbatim:
// x(j,n)(j,A) and x(j,A)(j,0) agree modulo j.
func TestSynchronicBridgeMP(t *testing.T) {
	const n = 3
	m := asyncmp.NewSynchronic(protocols.MPFullInfo{}, n)
	for a := 0; a < 1<<n; a++ {
		inputs := []int{a & 1, (a >> 1) & 1, (a >> 2) & 1}
		x := m.Initial(inputs)
		for j := 0; j < n; j++ {
			y := m.ApplyAbsent(m.Apply(x, j, n), j)
			yp := m.Apply(m.ApplyAbsent(x, j), j, 0)
			if !core.AgreeModulo(y, yp, j) {
				t.Errorf("inputs=%v j=%d: bridge does not agree modulo j", inputs, j)
			}
		}
	}
}

// TestSynchronicDelayedNotLost: the absent process's incoming messages are
// delayed, not lost — when it finally acts it receives the backlog. This
// is exactly what separates the asynchronous layering from the mobile
// failure model M^mf.
func TestSynchronicDelayedNotLost(t *testing.T) {
	const n = 3
	m := asyncmp.NewSynchronic(protocols.MPFlood{Phases: 4}, n)
	x := m.Initial([]int{0, 1, 1})
	// Two rounds with process 0 absent: its backlog holds two messages per
	// sender.
	y := m.ApplyAbsent(m.ApplyAbsent(x, 0), 0)
	out := y.Outstanding(0)
	if len(out[1]) != 2 || len(out[2]) != 2 {
		t.Fatalf("backlog = %d,%d messages, want 2,2", len(out[1]), len(out[2]))
	}
	// One round with 0 participating: backlog drained.
	z := m.Apply(y, 1, 0)
	for j, msgs := range z.Outstanding(0) {
		if len(msgs) != 0 {
			t.Errorf("after participating, %d messages from %d still pending", len(msgs), j)
		}
	}
	// And process 0 now knows value 1 (it received the flood backlog).
	if st := z.ProtocolState(0); st == x.ProtocolState(0) {
		t.Error("process 0's state unchanged after draining the backlog")
	}
}

// TestSynchronicLayerValenceConnected: Lemma 4.1's precondition in the
// synchronic message-passing submodel.
func TestSynchronicLayerValenceConnected(t *testing.T) {
	const n, phases = 3, 2
	m := asyncmp.NewSynchronic(protocols.MPFlood{Phases: phases}, n)
	f := fieldOf(t, m, phases+1)
	for _, u := range f.Graph().Inits {
		if r := f.AnalyzeNode(u); !r.ValenceConnected {
			t.Errorf("init %q: synchronic MP layer not valence connected", f.Graph().Keys[u])
		}
	}
}

// TestSynchronicCertifyRefuted: consensus is impossible even in this
// nearly-synchronous message-passing submodel (the paper's "strongest
// explicit version of an FLP-like impossibility theorem").
func TestSynchronicCertifyRefuted(t *testing.T) {
	for _, phases := range []int{1, 2} {
		m := asyncmp.NewSynchronic(protocols.MPFlood{Phases: phases}, 3)
		w, err := valence.Certify(nil, m, phases, 4_000_000)
		if err != nil {
			t.Fatalf("phases=%d: %v", phases, err)
		}
		if w.Kind == valence.OK {
			t.Errorf("phases=%d: consensus certified in the synchronic MP submodel", phases)
		}
	}
}
