package simplex

import "math/bits"

// Whole-problem entry points over the similarity-connected input subsets,
// for the tests that compare the kernel with the complex-per-subset
// reference.

// ConnectedInputSubsets enumerates every nonempty similarity-connected
// subset of the problem's input simplexes, as index slices into p.Inputs.
// It refuses (ErrTooManyInputs) when len(p.Inputs) > 16.
func (p *Problem) ConnectedInputSubsets() ([][]int, error) {
	masks, err := p.connectedInputMasks()
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(masks))
	for si, mask := range masks {
		idx := make([]int, 0, bits.OnesCount32(mask))
		for m := mask; m != 0; m &= m - 1 {
			idx = append(idx, bits.TrailingZeros32(m))
		}
		out[si] = idx
	}
	return out, nil
}

// ThickConnectedWith reports whether, under the given Δ' (a subproblem's
// map), C_Δ'(I) is k-thick-connected for every similarity-connected subset
// I of the inputs.
func (p *Problem) ThickConnectedWith(delta DeltaFunc, k int) (bool, error) {
	subsets, err := p.connectedInputMasks()
	if err != nil {
		return false, err
	}
	options := make([][]Simplex, len(p.Inputs))
	for i, s := range p.Inputs {
		options[i] = delta(s)
	}
	return newThickKernel(p.N, k, options, subsets).connectedUnder(nil), nil
}
