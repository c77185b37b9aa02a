package valence

// WidthProfile measures how much bivalence the environment has to work
// with at each depth: the number of distinct reachable states per layer and
// how many of them are bivalent (within their horizon). The paper's
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

// Width classifies every node's valence into a WidthProfile by reading the
// field: a node at depth d is classified within its horizon B-d.
func (f *Field) Width() *WidthProfile {
	nl := f.g.NumLayers()
	p := &WidthProfile{
		States:     make([]int, nl),
		Bivalent:   make([]int, nl),
		Univalent0: make([]int, nl),
		Univalent1: make([]int, nl),
		Null:       make([]int, nl),
	}
	for u := 0; u < f.g.Len(); u++ {
		d := f.g.DepthOf[u]
		p.States[d]++
		switch f.Mask(uint32(u)) {
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
	return p
}
