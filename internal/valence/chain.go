package valence

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrNoBivalentInit is returned when no initial state is bivalent within
// the horizon. For a consensus protocol satisfying decision and validity
// over a model displaying an arbitrary crash failure, Lemma 3.6 guarantees a
// bivalent initial state; failing to find one usually means the horizon is
// too small to observe decisions, or the protocol violates validity.
var ErrNoBivalentInit = errors.New("valence: no bivalent initial state within horizon")

// Chain is the result of the bivalent-chain construction of Theorem 4.2 /
// Lemma 6.1: an execution all of whose states are bivalent (within their
// horizons).
type Chain struct {
	// Exec is the constructed execution; its states are bivalent up to
	// Reached layers.
	Exec *core.Execution
	// Reached is the number of layers successfully extended.
	Reached int
	// Stuck is non-nil if the chain could not be extended to the target:
	// it reports the layer whose successor set contained no bivalent state.
	Stuck *LayerReport
}

// BivalentChain runs the Lemma 4.1 chain construction over the field:
// starting from the first bivalent initial node, extend by the first
// bivalent CSR successor at every step. Valences are the field's — horizon
// B-d at depth d for a graph explored to B — so target must be at most the
// graph's depth; a chain of T layers whose last state should still see
// one layer ahead needs a graph explored to T+1.
//
// If at some depth no successor is bivalent, the construction stops and the
// returned Chain carries the offending layer's report; per the paper this
// happens exactly when S(x) fails to be valence connected (or when the
// horizon is too small), so the report is the interesting diagnostic.
func (f *Field) BivalentChain(target int) (*Chain, error) {
	g := f.g
	if target > g.Depth {
		return nil, fmt.Errorf("valence: chain target %d exceeds graph depth %d", target, g.Depth)
	}
	var u uint32
	found := false
	for _, r := range g.Inits {
		if f.Bivalent(r) {
			u, found = r, true
			break
		}
	}
	if !found {
		return nil, ErrNoBivalentInit
	}
	exec := &core.Execution{Init: g.States[u]}
	for d := 0; d < target; d++ {
		labels, to := g.Out(u)
		found = false
		for i, v := range to {
			if f.Bivalent(v) {
				exec = exec.Extend(g.Label(labels[i]), g.States[v])
				u, found = v, true
				break
			}
		}
		if !found {
			return &Chain{Exec: exec, Reached: d, Stuck: f.AnalyzeNode(u)}, nil
		}
	}
	return &Chain{Exec: exec, Reached: target}, nil
}

// BivalentAtBound scans layer d in discovery order for a bivalent node —
// bivalent within the residual horizon B-d — and returns the first one
// together with the execution reaching it, reconstructed by parent-pointer
// walkback. A bivalent state at a claimed decision bound is the Lemma 3.2
// refutation witness that decision has not occurred by layer d.
func (f *Field) BivalentAtBound(d int) (u uint32, exec *core.Execution, ok bool) {
	for _, v := range f.g.Layer(d) {
		if f.Bivalent(v) {
			return v, f.g.PathTo(v), true
		}
	}
	return 0, nil, false
}
