// Package decision implements the generalized (covering-based) valence
// machinery of Section 7: coverings of run sets by output complexes,
// generalized valence and bivalence (a valence field seeded by the
// covering, whose BivalentChain is the Lemma 7.1 construction), and the
// Lemma 7.6 / Theorem 7.7 diameter recurrence.
package decision

import (
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilient"
	"repro/internal/simplex"
	"repro/internal/valence"
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

// FieldValences computes the generalized valence of every node of an
// explored graph with respect to a covering: the valence field swept from
// seed bits V0 (V1) on the fully-decided states whose decided simplex lies
// in O_0 (O_1). On a graded graph the field's Mask(u) is the generalized
// valence of g.States[u] within horizon g.Depth-depth(u) exactly;
// otherwise the sweep falls back to the fixpoint and the mask is the
// valence within the explored graph. Lemma 7.1's chain is the field's
// BivalentChain, and its checkpoints resume only a sweep with the same
// covering seed (see valence.NewFieldFrom).
func FieldValences(ctx *resilient.Ctx, g *core.IDGraph, cover Covering) (*valence.Field, error) {
	return valence.NewFieldFrom(ctx, g, func(x core.State) uint8 {
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
	})
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
