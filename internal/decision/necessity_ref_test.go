package decision

// The complex-per-subset necessity check, kept as the test reference
// CheckThickNecessity's kernel verdicts are pinned to. Exported so the
// external decision_test package can use it.

import (
	"repro/internal/core"
	"repro/internal/simplex"
)

// CheckThickNecessityRef is CheckThickNecessity as it was before the
// k-thick kernel: it assembles a Complex from every similarity-connected
// subset's decided simplexes and asks Complex.ThickConnected.
func CheckThickNecessityRef(m core.Model, inits []core.State, n, k, depth, maxNodes int) (*NecessityReport, error) {
	adj := make([]uint32, len(inits))
	for i := range inits {
		for j := range inits {
			if _, ok := core.Similar(inits[i], inits[j]); ok && i != j {
				adj[i] |= 1 << uint(j)
			}
		}
	}
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
	report := &NecessityReport{}
	for mask := uint32(1); mask < 1<<uint(len(inits)); mask++ {
		if !simplex.SubsetConnected(adj, mask) {
			continue
		}
		report.Subsets++
		c := simplex.NewComplex()
		for i := range inits {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			for _, s := range perInit[i] {
				c.Add(s)
			}
		}
		if c.ThickConnected(n, k) {
			report.Connected++
		} else if report.FirstFailure == nil {
			for i := range inits {
				if mask&(1<<uint(i)) != 0 {
					report.FirstFailure = append(report.FirstFailure, inits[i].Key())
				}
			}
		}
	}
	return report, nil
}
