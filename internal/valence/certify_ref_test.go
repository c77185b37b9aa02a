package valence

import (
	"fmt"

	"repro/internal/core"
)

// The recursive certifier, kept as the reference the engine is checked
// against (TestCertifyGraphMatchesRecursive, FuzzCertify). It
// re-enumerates successors through the model's successor cache and
// memoizes certified-clean subtrees in a map keyed on (state id,
// remaining depth, input mask), so it shares no search code with the
// engine: only the consensus checks checkState and checkWriteOnce.

// CertifyRef certifies consensus over every run of m of at most bound
// layers, scanning initial states in Inits order and successors in
// enumeration order; maxVisits bounds the visits (0 = no bound).
func CertifyRef(m core.Model, bound, maxVisits int) (*Witness, error) {
	c := &refCertifier{
		cache:     core.CacheOf(m),
		bound:     bound,
		maxVisits: maxVisits,
		memo:      make(map[refMemoKey]bool),
	}
	for _, init := range m.Inits() {
		exec := &core.Execution{Init: init}
		w, err := c.dfs(c.cache.ID(init), init, bound, inputMask(init), exec)
		if err != nil {
			return nil, err
		}
		if w != nil {
			w.Explored = c.visits
			return w, nil
		}
	}
	return &Witness{Kind: OK, Explored: c.visits}, nil
}

type refMemoKey struct {
	id     uint32
	depth  int32
	inputs uint64
}

type refCertifier struct {
	cache     *core.SuccessorCache
	bound     int
	maxVisits int
	visits    int
	memo      map[refMemoKey]bool // true = subtree certified clean
}

func (c *refCertifier) dfs(id uint32, x core.State, remaining int, inputs uint64, exec *core.Execution) (*Witness, error) {
	mk := refMemoKey{id: id, depth: int32(remaining), inputs: inputs}
	if c.memo[mk] {
		return nil, nil
	}
	c.visits++
	if c.maxVisits > 0 && c.visits > c.maxVisits {
		return nil, fmt.Errorf("after %d visits: %w", c.visits, ErrBudget)
	}

	if w := checkState(x, inputs); w != nil {
		w.Exec = exec
		return w, nil
	}
	if remaining == 0 {
		if !core.AllDecided(x) {
			return &Witness{
				Kind:   UndecidedAtBound,
				Exec:   exec,
				Detail: fmt.Sprintf("a non-failed process is undecided after %d layers", c.bound),
			}, nil
		}
		c.memo[mk] = true
		return nil, nil
	}
	succs, sids := c.cache.Enumerate(x)
	for i := range succs {
		s := succs[i]
		if w := checkWriteOnce(x, s.State); w != nil {
			w.Exec = exec.Extend(s.Action, s.State)
			w.Detail = fmt.Sprintf("%s (action %s)", w.Detail, s.Action)
			return w, nil
		}
		w, err := c.dfs(sids[i], s.State, remaining-1, inputs, exec.Extend(s.Action, s.State))
		if err != nil || w != nil {
			return w, err
		}
	}
	c.memo[mk] = true
	return nil, nil
}
