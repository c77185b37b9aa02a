package decision

// The recursive generalized-valence engine, kept as the test reference
// FieldValences and BivalentChain are pinned to. Exported so the external
// decision_test package can use it.

import "repro/internal/core"

// Oracle computes horizon-bounded generalized valence with respect to a
// covering, with memoization on (state key, horizon).
type Oracle struct {
	succ  core.Successor
	cover Covering
	memo  map[memoKey]uint8
}

type memoKey struct {
	key     string
	horizon int
}

// NewOracle returns a generalized-valence oracle for the covering.
func NewOracle(succ core.Successor, cover Covering) *Oracle {
	return &Oracle{succ: succ, cover: cover, memo: make(map[memoKey]uint8)}
}

// Valences returns the generalized valence mask of x within the horizon:
// bit 0 (1) is set if some execution of at most horizon layers extending x
// reaches a fully-decided state whose decided simplex lies in O_0 (O_1).
func (o *Oracle) Valences(x core.State, horizon int) uint8 {
	k := memoKey{key: x.Key(), horizon: horizon}
	if v, ok := o.memo[k]; ok {
		return v
	}
	var mask uint8
	if s, decided := DecidedSimplex(x); decided {
		if o.cover.O0.Has(s) {
			mask |= v0
		}
		if o.cover.O1.Has(s) {
			mask |= v1
		}
	}
	if mask != v0|v1 && horizon > 0 {
		for _, s := range o.succ.Successors(x) {
			mask |= o.Valences(s.State, horizon-1)
			if mask == v0|v1 {
				break
			}
		}
	}
	o.memo[k] = mask
	return mask
}

// Bivalent reports generalized bivalence within the horizon.
func (o *Oracle) Bivalent(x core.State, horizon int) bool {
	return o.Valences(x, horizon) == v0|v1
}

// OracleBivalentChain runs the Lemma 7.1 construction state by state:
// starting from a generalized-bivalent initial state, repeatedly pick a
// generalized-bivalent successor, for `target` layers, computing valences
// with horizon(d) lookahead at depth d.
func OracleBivalentChain(m core.Model, o *Oracle, horizon func(int) int, target int) (*Chain, error) {
	var x core.State
	for _, init := range m.Inits() {
		if o.Bivalent(init, horizon(0)) {
			x = init
			break
		}
	}
	if x == nil {
		return nil, ErrNoBivalentInit
	}
	exec := &core.Execution{Init: x}
	for d := 0; d < target; d++ {
		h := horizon(d + 1)
		found := false
		for _, s := range m.Successors(x) {
			if o.Bivalent(s.State, h) {
				exec = exec.Extend(s.Action, s.State)
				x = s.State
				found = true
				break
			}
		}
		if !found {
			return &Chain{Exec: exec, Reached: d, StuckAt: d}, nil
		}
	}
	return &Chain{Exec: exec, Reached: target, StuckAt: -1}, nil
}
