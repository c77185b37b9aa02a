package decision

// The recursive generalized-valence engine and the byte-mask sweep, kept
// as the test references FieldValences and its chain are pinned to.
// Exported so the external decision_test package can use them.

import (
	"repro/internal/core"
	"repro/internal/valence"
)

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

// coverMask is the covering's valence bits for x: V0 (V1) when x is fully
// decided and its decided simplex lies in O_0 (O_1).
func coverMask(cover Covering, x core.State) uint8 {
	var m uint8
	if s, decided := DecidedSimplex(x); decided {
		if cover.O0.Has(s) {
			m |= valence.V0
		}
		if cover.O1.Has(s) {
			m |= valence.V1
		}
	}
	return m
}

// Valences returns the generalized valence mask of x within the horizon:
// bit 0 (1) is set if some execution of at most horizon layers extending x
// reaches a fully-decided state whose decided simplex lies in O_0 (O_1).
func (o *Oracle) Valences(x core.State, horizon int) uint8 {
	k := memoKey{key: x.Key(), horizon: horizon}
	if v, ok := o.memo[k]; ok {
		return v
	}
	mask := coverMask(o.cover, x)
	if mask != valence.V0|valence.V1 && horizon > 0 {
		for _, s := range o.succ.Successors(x) {
			mask |= o.Valences(s.State, horizon-1)
			if mask == valence.V0|valence.V1 {
				break
			}
		}
	}
	o.memo[k] = mask
	return mask
}

// Bivalent reports generalized bivalence within the horizon.
func (o *Oracle) Bivalent(x core.State, horizon int) bool {
	return o.Valences(x, horizon) == valence.V0|valence.V1
}

// RefChain is a generalized bivalent chain built by OracleBivalentChain.
type RefChain struct {
	Exec    *core.Execution
	Reached int
	// StuckAt is -1 if the chain reached its target; otherwise the depth at
	// which no generalized-bivalent successor existed.
	StuckAt int
}

// OracleBivalentChain runs the Lemma 7.1 construction state by state:
// starting from a generalized-bivalent initial state, repeatedly pick a
// generalized-bivalent successor, for `target` layers, computing valences
// with horizon(d) lookahead at depth d.
func OracleBivalentChain(m core.Model, o *Oracle, horizon func(int) int, target int) (*RefChain, error) {
	var x core.State
	for _, init := range m.Inits() {
		if o.Bivalent(init, horizon(0)) {
			x = init
			break
		}
	}
	if x == nil {
		return nil, valence.ErrNoBivalentInit
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
			return &RefChain{Exec: exec, Reached: d, StuckAt: d}, nil
		}
	}
	return &RefChain{Exec: exec, Reached: target, StuckAt: -1}, nil
}

// FieldValencesRef is the byte-mask sweep FieldValences ran before it
// became a seeded valence field: masks[u] is the OR over u's reachable
// closure of the covering's masks, swept once in reverse layer order on a
// graded graph and to fixpoint otherwise.
func FieldValencesRef(g *core.IDGraph, cover Covering) []uint8 {
	masks := make([]uint8, g.Len())
	relax := func(u uint32) uint8 {
		m := coverMask(cover, g.States[u])
		for e := g.EdgeStart[u]; e < g.EdgeStart[u+1] && m != valence.V0|valence.V1; e++ {
			m |= masks[g.EdgeTo[e]]
		}
		return m
	}
	if g.Graded() {
		for d := g.NumLayers() - 1; d >= 0; d-- {
			for _, u := range g.Layer(d) {
				masks[u] = relax(u)
			}
		}
		return masks
	}
	for changed := true; changed; {
		changed = false
		for u := g.Len() - 1; u >= 0; u-- {
			if m := relax(uint32(u)) | masks[u]; m != masks[u] {
				masks[u] = m
				changed = true
			}
		}
	}
	return masks
}
