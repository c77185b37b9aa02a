package valence

import (
	"fmt"

	"repro/internal/core"
)

// DecisionDepth reports the decision-time landscape of a (correct)
// protocol over a layered submodel: across all runs of at most `bound`
// layers from the given initial states, the earliest and latest layer at
// which every non-failed process has decided, and a histogram of
// first-all-decided layers over all run prefixes.
type DecisionDepth struct {
	// Min and Max are the extreme first-all-decided layers over all runs.
	Min, Max int
	// Histogram[d] counts the distinct (state-path) runs whose first
	// all-decided layer is d. Runs that never fully decide within the
	// bound are counted in Undecided.
	Histogram []int
	// Undecided counts runs still undecided at the bound.
	Undecided int
	// Runs is the total number of runs examined.
	Runs int
}

// MeasureDecisionDepth walks every run (action path) of length `bound`
// from each initial state, in order and duplicates included, and records
// when it first became fully decided. It explores core.WithInits(m, inits)
// to bound once and follows each run along the graph's edges. The path
// count grows as |S(x)|^bound; use small bounds. maxRuns caps the walk (0 =
// unbounded).
func MeasureDecisionDepth(m core.Model, inits []core.State, bound, maxRuns int) (*DecisionDepth, error) {
	g, err := core.ExploreIDCtx(nil, core.WithInits(m, inits), bound, 0, 0)
	if err != nil {
		return nil, err
	}
	decided := make([]bool, g.Len())
	for u, x := range g.States {
		decided[u] = core.AllDecided(x)
	}
	d := &DecisionDepth{
		Min:       bound + 1,
		Histogram: make([]int, bound+1),
	}
	var walk func(u uint32, depth int, decidedAt int) error
	walk = func(u uint32, depth, decidedAt int) error {
		if decidedAt < 0 && decided[u] {
			decidedAt = depth
		}
		if depth == bound {
			d.Runs++
			if maxRuns > 0 && d.Runs > maxRuns {
				return fmt.Errorf("after %d runs: %w", d.Runs, ErrBudget)
			}
			if decidedAt < 0 {
				d.Undecided++
				return nil
			}
			d.Histogram[decidedAt]++
			if decidedAt < d.Min {
				d.Min = decidedAt
			}
			if decidedAt > d.Max {
				d.Max = decidedAt
			}
			return nil
		}
		// A node on a run of depth layers was first reached at depth or
		// above, so below the bound its edges are all recorded.
		_, to := g.Out(u)
		for _, v := range to {
			if err := walk(v, depth+1, decidedAt); err != nil {
				return err
			}
		}
		return nil
	}
	for _, x := range inits {
		// The graph was seeded from inits, so every one is a node.
		u, _ := g.NodeByKey(x.Key())
		if err := walk(u, 0, -1); err != nil {
			return nil, err
		}
	}
	return d, nil
}
