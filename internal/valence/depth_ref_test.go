package valence

// The recursive decision-depth walker, kept as the test reference
// MeasureDecisionDepth is pinned to (depth_test.go): it follows every run
// through the model's successor function instead of the explored graph.
// Exported so the external valence_test package can use it.

import (
	"fmt"

	"repro/internal/core"
)

// MeasureDecisionDepthRef walks every run of length bound from each
// initial state through m.Successors and records when it first became
// fully decided, as MeasureDecisionDepth does over the explored graph.
func MeasureDecisionDepthRef(m core.Model, inits []core.State, bound, maxRuns int) (*DecisionDepth, error) {
	d := &DecisionDepth{
		Min:       bound + 1,
		Histogram: make([]int, bound+1),
	}
	var walk func(x core.State, depth int, decidedAt int) error
	walk = func(x core.State, depth, decidedAt int) error {
		if decidedAt < 0 && core.AllDecided(x) {
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
		for _, s := range m.Successors(x) {
			if err := walk(s.State, depth+1, decidedAt); err != nil {
				return err
			}
		}
		return nil
	}
	for _, init := range inits {
		if err := walk(init, 0, -1); err != nil {
			return nil, err
		}
	}
	return d, nil
}
