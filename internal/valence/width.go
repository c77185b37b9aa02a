package valence

import (
	"repro/internal/core"
)

// WidthProfile measures how much bivalence the environment has to work
// with at each depth: the number of distinct reachable states per layer and
// how many of them are bivalent (within the per-depth horizon). The paper's
// adversary needs one bivalent successor per layer; the profile shows the
// whole frontier.
type WidthProfile struct {
	// States[d] is the number of distinct states first reached at depth d.
	States []int
	// Bivalent[d] is how many of them are bivalent.
	Bivalent []int
	// Univalent0[d] and Univalent1[d] count the univalent states.
	Univalent0 []int
	Univalent1 []int
	// Null[d] counts null-valent states (horizon exhausted).
	Null []int
}

// BivalenceWidth explores the model to the given depth and classifies
// every reachable state's valence with horizon(depth) lookahead.
func BivalenceWidth(m core.Model, o *Oracle, horizon HorizonFunc, depth, maxNodes int) (*WidthProfile, error) {
	g, err := core.ExploreID(m, depth, maxNodes)
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
