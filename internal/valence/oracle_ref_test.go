package valence

// The recursive valence engine, kept as the test reference the field is
// pinned to (valence_diff_test.go): a memoized DFS over a successor
// function computing horizon-bounded valence state by state, with the
// Oracle-backed layer report, bivalent chain and width profile built on
// it. Exported so the external valence_test package can use it.

import (
	"fmt"

	"repro/internal/core"
)

// Oracle computes horizon-bounded binary valence over a successor function,
// with memoization on (state id, horizon). States are interned to dense
// uint32 ids by the successor cache backing the oracle — the model's shared
// cache when the successor function carries one.
type Oracle struct {
	cache *core.SuccessorCache
	memo  map[memoKey]uint8
	// Bivalence is monotone in the horizon: a state bivalent within h is
	// bivalent within every h' >= h (its h-futures are a subset of its
	// h'-futures). bivSet is a per-id bitset of states known bivalent at
	// some horizon, bivMin[id] the smallest such horizon; together they
	// answer larger-horizon queries before the (id, horizon) map is even
	// consulted, so re-analyses across a horizon schedule stop growing the
	// memo for bivalent states.
	bivSet []uint64
	bivMin []int32
}

type memoKey struct {
	id      uint32
	horizon int32
}

// NewOracle returns an oracle over succ. When succ is (or wraps) a model
// with an embedded successor cache, the oracle draws from that shared
// cache; otherwise it builds a private one.
func NewOracle(succ core.Successor) *Oracle {
	return &Oracle{cache: core.CacheOf(succ), memo: make(map[memoKey]uint8)}
}

// Valences returns the valence mask of x within the given horizon: bit V0
// (V1) is set if some execution of at most horizon layers extending x
// reaches a state where a process that is non-failed there has decided 0
// (1).
func (o *Oracle) Valences(x core.State, horizon int) uint8 {
	return o.valences(o.cache.ID(x), x, horizon)
}

func (o *Oracle) valences(id uint32, x core.State, horizon int) uint8 {
	if o.bivalentShortcut(id, horizon) {
		return V0 | V1
	}
	k := memoKey{id: id, horizon: int32(horizon)}
	if v, ok := o.memo[k]; ok {
		return v
	}
	mask := uint8(core.DecidedValues(x) & 0b11)
	if mask != V0|V1 && horizon > 0 {
		succs, sids := o.cache.Enumerate(x)
		for i := range succs {
			mask |= o.valences(sids[i], succs[i].State, horizon-1)
			if mask == V0|V1 {
				break
			}
		}
	}
	o.memo[k] = mask
	if mask == V0|V1 {
		o.markBivalent(id, horizon)
	}
	return mask
}

// bivalentShortcut reports whether id is already known bivalent at a
// horizon no larger than the queried one.
func (o *Oracle) bivalentShortcut(id uint32, horizon int) bool {
	w := int(id >> 6)
	return w < len(o.bivSet) && o.bivSet[w]&(1<<(id&63)) != 0 &&
		int32(horizon) >= o.bivMin[id]
}

// markBivalent records that id is bivalent within the given horizon.
func (o *Oracle) markBivalent(id uint32, horizon int) {
	for uint32(len(o.bivMin)) <= id {
		o.bivMin = append(o.bivMin, -1)
	}
	w := int(id >> 6)
	for len(o.bivSet) <= w {
		o.bivSet = append(o.bivSet, 0)
	}
	bit := uint64(1) << (id & 63)
	if o.bivSet[w]&bit == 0 || int32(horizon) < o.bivMin[id] {
		o.bivSet[w] |= bit
		o.bivMin[id] = int32(horizon)
	}
}

// Bivalent reports whether x is bivalent within the horizon.
func (o *Oracle) Bivalent(x core.State, horizon int) bool {
	return o.Valences(x, horizon) == V0|V1
}

// Univalent reports whether x is v-univalent within the horizon: v-valent
// and not (1-v)-valent. With a too-small horizon a state can be
// null-valent (no decisions reachable); Univalent is then false for both
// values.
func (o *Oracle) Univalent(x core.State, horizon int) (v int, ok bool) {
	switch o.Valences(x, horizon) {
	case V0:
		return 0, true
	case V1:
		return 1, true
	default:
		return 0, false
	}
}

// MemoLen reports the number of memoized (state, horizon) entries.
func (o *Oracle) MemoLen() int { return len(o.memo) }

// SharedValence reports whether x ~v y within the horizon (Definition 3.1):
// some value w has both states w-valent.
func (o *Oracle) SharedValence(x, y core.State, horizon int) bool {
	return o.Valences(x, horizon)&o.Valences(y, horizon) != 0
}

// HorizonFunc gives the valence lookahead used for states at a given chain
// depth.
type HorizonFunc func(depth int) int

// DecreasingHorizon returns bound-depth (floored at min): exact valence for
// protocols whose decisions all occur within `bound` layers of the start.
func DecreasingHorizon(bound, min int) HorizonFunc {
	return func(depth int) int {
		h := bound - depth
		if h < min {
			return min
		}
		return h
	}
}

// BivalentChain constructs an execution of `target` layers from a bivalent
// initial state, choosing the first bivalent successor at every step
// (Lemma 4.1), with valences at depth d computed to lookahead horizon(d).
// A layer with no bivalent successor stops the construction and attaches
// that layer's report.
func BivalentChain(m core.Model, o *Oracle, horizon HorizonFunc, target int) (*Chain, error) {
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
		var found bool
		for _, s := range m.Successors(x) {
			if o.Bivalent(s.State, h) {
				exec = exec.Extend(s.Action, s.State)
				x = s.State
				found = true
				break
			}
		}
		if !found {
			return &Chain{
				Exec:    exec,
				Reached: d,
				Stuck:   AnalyzeLayer(m, o, x, h),
			}, nil
		}
	}
	return &Chain{Exec: exec, Reached: target}, nil
}

// CheckBivalentUndecided verifies the conclusion of Lemma 3.1 at state x:
// if x is bivalent (within the horizon) then at least n-t processes that are
// non-failed at x have not decided. It returns an error describing the
// violation, or nil.
func CheckBivalentUndecided(o *Oracle, x core.State, horizon, t int) error {
	if !o.Bivalent(x, horizon) {
		return nil
	}
	undecided := 0
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		if _, ok := x.Decided(i); !ok {
			undecided++
		}
	}
	if undecided < x.N()-t {
		return fmt.Errorf("valence: bivalent state has only %d undecided non-failed processes, want >= %d", undecided, x.N()-t)
	}
	return nil
}

// BivalenceWidth explores the model to the given depth and classifies
// every reachable state's valence with horizon(depth) lookahead.
func BivalenceWidth(m core.Model, o *Oracle, horizon HorizonFunc, depth, maxNodes int) (*WidthProfile, error) {
	g, err := core.ExploreIDCtx(nil, m, depth, maxNodes, 1)
	if err != nil {
		return nil, err
	}
	p := &WidthProfile{
		States:     make([]int, depth+1),
		Bivalent:   make([]int, depth+1),
		Univalent0: make([]int, depth+1),
		Univalent1: make([]int, depth+1),
		Null:       make([]int, depth+1),
	}
	for d := 0; d <= depth; d++ {
		h := horizon(d)
		for _, x := range g.StatesAtDepth(d) {
			p.States[d]++
			switch o.Valences(x, h) {
			case V0 | V1:
				p.Bivalent[d]++
			case V0:
				p.Univalent0[d]++
			case V1:
				p.Univalent1[d]++
			default:
				p.Null[d]++
			}
		}
	}
	return p, nil
}

// AnalyzeLayer computes the full layer report for S(x) with the given
// valence horizon applied to the successor states.
func AnalyzeLayer(succ core.Successor, o *Oracle, x core.State, horizon int) *LayerReport {
	states, actions := Layer(succ, x)
	r := &LayerReport{States: states, Actions: actions}

	sg := SimilarityGraph(states)
	r.SimilarityConnected = sg.Connected()
	r.SimilarityComponents = len(sg.Components())
	r.SDiameter, _ = sg.Diameter()

	r.Valences = make([]uint8, len(states))
	for i, s := range states {
		r.Valences[i] = o.Valences(s, horizon)
		switch r.Valences[i] {
		case V0 | V1:
			r.BivalentIdx = append(r.BivalentIdx, i)
		case 0:
			r.NullValentIdx = append(r.NullValentIdx, i)
		}
	}
	r.ValenceConnected = ValenceConnected(r.Valences)
	return r
}
