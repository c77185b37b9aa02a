package decision

import "repro/internal/simplex"

// Coverings built from observed decided simplexes, and the check of the
// two covering conditions, for the tests of generalized valence.

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
