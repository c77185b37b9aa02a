// Package decision implements the generalized (covering-based) valence
// machinery of Section 7: coverings of run sets by output complexes,
// generalized valence and bivalence, the Lemma 7.1 bivalent-chain
// construction, and the Lemma 7.6 / Theorem 7.7 diameter recurrence.
package decision

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilient"
	"repro/internal/simplex"
)

// sortedSimplexKeys returns the keys of a decided-simplex set in sorted
// order, so constructions and diagnostics over the set are deterministic.
func sortedSimplexKeys(decided map[string]simplex.Simplex) []string {
	keys := make([]string, 0, len(decided))
	for k := range decided {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Covering is a pair of n-size complexes (O_0, O_1) covering the decided
// output simplexes of a set of runs: every decided output simplex belongs
// to one or both complexes, and each complex contains at least one decided
// output simplex of some run.
type Covering struct {
	O0 *simplex.Complex
	O1 *simplex.Complex
}

// ConsensusCovering returns the covering that reduces generalized valence
// to classical binary valence: O_v is the closure of the all-v n-simplex.
func ConsensusCovering(n int) Covering {
	zeros := make([]int, n)
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	return Covering{
		O0: simplex.NewComplex(simplex.FromValues(zeros)),
		O1: simplex.NewComplex(simplex.FromValues(ones)),
	}
}

// MinValueCovering builds a covering from an observed set of decided
// output simplexes by splitting on the minimum decided value: a simplex
// goes to O_0 if its minimum decision is 0 and to O_1 otherwise. For binary
// decisions this always satisfies covering condition (i); condition (ii)
// holds when both classes are inhabited, which CheckCovering verifies.
func MinValueCovering(decided map[string]simplex.Simplex) Covering {
	c := Covering{O0: simplex.NewComplex(), O1: simplex.NewComplex()}
	for _, k := range sortedSimplexKeys(decided) {
		s := decided[k]
		min := 0
		for i, v := range s.Vertices() {
			if i == 0 || v.Value < min {
				min = v.Value
			}
		}
		if min == 0 {
			c.O0.Add(s)
		} else {
			c.O1.Add(s)
		}
	}
	return c
}

// CoveringByProcess builds a covering from observed decided simplexes by
// the decision of one designated process: a simplex with pid deciding 0
// goes to O_0, anything else to O_1. In models that display no finite
// failure the decided simplexes span all processes, so the classification
// is total; unlike MinValueCovering it leaves mixed-decision states
// genuinely bivalent, which makes it the covering of choice for the
// Lemma 7.1 chain experiments.
func CoveringByProcess(decided map[string]simplex.Simplex, pid int) Covering {
	c := Covering{O0: simplex.NewComplex(), O1: simplex.NewComplex()}
	for _, k := range sortedSimplexKeys(decided) {
		s := decided[k]
		if v, ok := s.ValueOf(pid); ok && v == 0 {
			c.O0.Add(s)
		} else {
			c.O1.Add(s)
		}
	}
	return c
}

// DecidedSimplex returns the simplex of decisions of the processes that are
// non-failed at x, and whether all of them have decided.
func DecidedSimplex(x core.State) (simplex.Simplex, bool) {
	var verts []simplex.Vertex
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		v, ok := x.Decided(i)
		if !ok {
			return simplex.Simplex{}, false
		}
		verts = append(verts, simplex.Vertex{ID: i, Value: v})
	}
	s, err := simplex.New(verts...)
	if err != nil {
		return simplex.Simplex{}, false
	}
	return s, true
}

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

// Valence bits.
const (
	v0 uint8 = 1 << 0
	v1 uint8 = 1 << 1
)

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

// ErrNoBivalentInit mirrors the classical construction: no initial state is
// bivalent with respect to the covering.
var ErrNoBivalentInit = errors.New("decision: no generalized-bivalent initial state within horizon")

// Chain is a generalized bivalent chain (Lemma 7.1).
type Chain struct {
	Exec    *core.Execution
	Reached int
	// StuckAt is -1 if the chain reached its target; otherwise the depth at
	// which no generalized-bivalent successor existed.
	StuckAt int
}

// BivalentChain runs the Lemma 7.1 construction: starting from a
// generalized-bivalent initial state, repeatedly pick a generalized-
// bivalent successor, for `target` layers, computing valences with
// horizon(d) lookahead at depth d.
func BivalentChain(m core.Model, o *Oracle, horizon func(int) int, target int) (*Chain, error) {
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

// CollectDecidedSimplexes explores the model to the given depth and returns
// the distinct decided output simplexes of fully-decided states, keyed by
// simplex Key.
func CollectDecidedSimplexes(m core.Model, depth, maxNodes int) (map[string]simplex.Simplex, error) {
	g, err := core.ExploreID(m, depth, maxNodes)
	if err != nil {
		return nil, err
	}
	return CollectDecidedSimplexesGraph(g), nil
}

// CollectDecidedSimplexesGraph returns the distinct decided output
// simplexes of fully-decided states in an already-materialized graph,
// keyed by simplex Key — one pass over the CSR node array instead of a
// fresh exploration.
func CollectDecidedSimplexesGraph(g *core.IDGraph) map[string]simplex.Simplex {
	out := make(map[string]simplex.Simplex)
	for _, x := range g.States {
		if s, ok := DecidedSimplex(x); ok && s.Size() > 0 {
			out[s.Key()] = s
		}
	}
	if rec := obs.Active(); rec != nil {
		rec.Add("decision.collect.runs", 1)
		rec.Add("decision.collect.states", int64(g.Len()))
		rec.Set("decision.collect.simplexes", int64(len(out)))
	}
	return out
}

// FieldValences computes the generalized valence mask of every node of an
// explored graph in one bottom-up sweep, the covering analogue of
// valence.NewField: masks[u] holds the OR over u's reachable closure (in
// the explored graph) of the base masks assigned by the covering to
// fully-decided states. On a graded graph (every edge advancing one
// layer) masks[u] equals Oracle.Valences(g.States[u], g.Depth-depth(u))
// exactly; otherwise the sweep falls back to a fixpoint loop and the mask
// is the valence within the explored graph.
func FieldValences(g *core.IDGraph, cover Covering) []uint8 {
	for {
		masks, err := FieldValencesCtx(nil, g, cover)
		if err == nil {
			return masks
		}
		// A nil context never cancels, so the error is an injected chaos
		// fault; each armed rule fires once, so retrying converges.
	}
}

// FieldValencesCtx is FieldValences under a cancellation context, polled
// (with the chaos decision.field.layer fault point) once per layer on
// graded graphs and once per pass in the fixpoint fallback. An
// interruption returns the partial masks computed so far — layers deeper
// than the cut are final on graded graphs — alongside the wrapped cause.
func FieldValencesCtx(ctx *resilient.Ctx, g *core.IDGraph, cover Covering) ([]uint8, error) {
	rec := obs.Active()
	defer obs.Span(rec, "decision.field.time")()
	if tr := obs.Trace(); tr != nil {
		defer tr.End(tr.Begin("decision.field", 0))
	}
	if rec != nil {
		rec.Add("decision.field.sweeps", 1)
		rec.Add("decision.field.nodes", int64(g.Len()))
	}
	masks := make([]uint8, g.Len())
	base := func(u uint32) uint8 {
		var m uint8
		if s, decided := DecidedSimplex(g.States[u]); decided {
			if cover.O0.Has(s) {
				m |= v0
			}
			if cover.O1.Has(s) {
				m |= v1
			}
		}
		return m
	}
	relax := func(u uint32) uint8 {
		m := base(u)
		for e := g.EdgeStart[u]; e < g.EdgeStart[u+1] && m != v0|v1; e++ {
			m |= masks[g.EdgeTo[e]]
		}
		return m
	}
	interrupted := func(at int, cause error) ([]uint8, error) {
		if rec != nil {
			rec.Add("decision.field.interrupts", 1)
			rec.Event("decision.field.interrupted",
				obs.F{Key: "at", Value: at},
				obs.F{Key: "cause", Value: cause.Error()})
		}
		return masks, fmt.Errorf("decision: field sweep interrupted at layer %d: %w", at, cause)
	}
	if g.Graded() {
		for d := g.NumLayers() - 1; d >= 0; d-- {
			if err := chaos.Check(ctx, "decision.field.layer"); err != nil {
				return interrupted(d, err)
			}
			// Iterate the layer as its contiguous id window when the layout
			// pass has verified one: the sweep then reads EdgeStart/EdgeTo
			// strictly forward (prefetch-friendly), matching the valence
			// field's access pattern.
			if lo, hi, ok := g.LayerSpan(d); ok {
				for u := lo; u < hi; u++ {
					masks[u] = relax(u)
				}
			} else {
				for _, u := range g.Layer(d) {
					masks[u] = relax(u)
				}
			}
		}
		return masks, nil
	}
	for changed, pass := true, 0; changed; pass++ {
		if err := chaos.Check(ctx, "decision.field.layer"); err != nil {
			return interrupted(pass, err)
		}
		changed = false
		for u := g.Len() - 1; u >= 0; u-- {
			if m := relax(uint32(u)) | masks[u]; m != masks[u] {
				masks[u] = m
				changed = true
			}
		}
	}
	return masks, nil
}

// CheckCovering verifies the two covering conditions against a set of
// decided output simplexes: every simplex is in O_0 ∪ O_1, and each O_v
// contains at least one of them. It returns false with a reason otherwise.
func CheckCovering(cover Covering, decided map[string]simplex.Simplex) (bool, string) {
	// Sorted iteration pins which simplex an uncovered-reason names when
	// several are outside both complexes.
	saw0, saw1 := false, false
	for _, k := range sortedSimplexKeys(decided) {
		s := decided[k]
		in0, in1 := cover.O0.Has(s), cover.O1.Has(s)
		if !in0 && !in1 {
			return false, "decided simplex " + s.String() + " is in neither complex"
		}
		saw0 = saw0 || in0
		saw1 = saw1 || in1
	}
	if !saw0 {
		return false, "O_0 contains no decided simplex"
	}
	if !saw1 {
		return false, "O_1 contains no decided simplex"
	}
	return true, ""
}

// DiameterBound computes the Theorem 7.7 bound d_X^t via the Lemma 7.6
// recurrence d' = dX*dY + dX + dY with the paper's per-round layer diameter
// bound dY^m = 2(n-m), starting from the s-diameter dI of the initial set.
func DiameterBound(dI, n, t int) int {
	d := dI
	for m := 0; m < t; m++ {
		dY := 2 * (n - m)
		if dY < 0 {
			dY = 0
		}
		d = d*dY + d + dY
	}
	return d
}
