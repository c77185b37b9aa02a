package decision

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/simplex"
)

// NecessityReport is the result of CheckThickNecessity: the measured
// 1-thick connectivity of the decided-output complexes over each
// similarity-connected set of initial states.
type NecessityReport struct {
	// Subsets is the number of similarity-connected initial-state subsets
	// examined.
	Subsets int
	// Connected is how many of their decided-output complexes were
	// k-thick connected.
	Connected int
	// FirstFailure, when Connected < Subsets, names the offending subset
	// by its initial-state keys.
	FirstFailure []string
}

// CheckThickNecessity measures the necessity direction of Theorem 7.2 on a
// live protocol: for a protocol that solves its decision problem over the
// layered submodel, the complex of decided output simplexes of the runs
// from every similarity-connected set I of initial states must be k-thick
// connected. It explores each initial state's runs to the given depth
// once and decides every subset's complex with the k-thick kernel
// (simplex.ThickConnectedSubsets), without building it. Subsets are
// enumerated from the given initial states (at most 16).
func CheckThickNecessity(m core.Model, inits []core.State, n, k, depth, maxNodes int) (*NecessityReport, error) {
	if len(inits) > 16 {
		return nil, fmt.Errorf("decision: %d initial states; subset enumeration capped at 16", len(inits))
	}
	// Similarity adjacency over the initial states, one neighbour mask each.
	adj := make([]uint32, len(inits))
	for i := range inits {
		for j := range inits {
			if _, ok := core.Similar(inits[i], inits[j]); ok && i != j {
				adj[i] |= 1 << uint(j)
			}
		}
	}
	// Per-initial-state decided simplexes (reused across subsets), flattened
	// to key-sorted slices so the kernel interns them in the same order
	// regardless of map iteration.
	perInit := make([][]simplex.Simplex, len(inits))
	for i, x := range inits {
		decided, err := CollectDecidedSimplexes(core.WithInits(m, []core.State{x}), depth, maxNodes)
		if err != nil {
			return nil, err
		}
		for _, k := range sortedSimplexKeys(decided) {
			perInit[i] = append(perInit[i], decided[k])
		}
	}

	var subsets []uint32
	for mask := uint32(1); mask < 1<<uint(len(inits)); mask++ {
		if simplex.SubsetConnected(adj, mask) {
			subsets = append(subsets, mask)
		}
	}
	report := &NecessityReport{Subsets: len(subsets)}
	for j, ok := range simplex.ThickConnectedSubsets(n, k, perInit, subsets) {
		if ok {
			report.Connected++
		} else if report.FirstFailure == nil {
			for i := range inits {
				if subsets[j]&(1<<uint(i)) != 0 {
					report.FirstFailure = append(report.FirstFailure, inits[i].Key())
				}
			}
		}
	}
	return report, nil
}
