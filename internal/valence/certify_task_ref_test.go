package valence_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/simplex"
	"repro/internal/valence"
)

// The recursive task certifier, kept as the reference decision.CertifyTask
// is checked against (TestCertifyTaskMatchesRecursive, FuzzCertify). It
// re-enumerates successors through the model and memoizes certified-clean
// subtrees on (state key, remaining depth, input simplex key); its output
// and write-once checks are its own.

// certifyTaskRef certifies delta over every run of m of at most bound
// layers from inits, in inits order.
func certifyTaskRef(m core.Model, inits []core.State, delta simplex.DeltaFunc, bound, maxVisits int) (*decision.TaskWitness, error) {
	c := &taskRefCertifier{
		m:         m,
		bound:     bound,
		maxVisits: maxVisits,
		memo:      make(map[string]bool),
	}
	for _, init := range inits {
		in, ok := init.(core.Input)
		if !ok {
			return nil, fmt.Errorf("decision: initial state does not expose inputs")
		}
		vals := make([]int, init.N())
		for i := range vals {
			vals[i] = in.InputOf(i)
		}
		inputSimplex := simplex.FromValues(vals)
		allowed := delta(inputSimplex)
		if len(allowed) == 0 {
			return nil, fmt.Errorf("decision: Δ(%s) is empty", inputSimplex)
		}
		exec := &core.Execution{Init: init}
		w, err := c.dfs(init, bound, inputSimplex.Key(), allowed, exec)
		if err != nil {
			return nil, err
		}
		if w != nil {
			w.Explored = c.visits
			return w, nil
		}
	}
	return &decision.TaskWitness{Kind: decision.TaskOK, Explored: c.visits}, nil
}

type taskRefCertifier struct {
	m         core.Model
	bound     int
	maxVisits int
	visits    int
	memo      map[string]bool // (stateKey|depth|inputKey) -> subtree clean
}

func (c *taskRefCertifier) dfs(x core.State, remaining int, inputKey string, allowed []simplex.Simplex, exec *core.Execution) (*decision.TaskWitness, error) {
	mk := fmt.Sprintf("%s|%d|%s", x.Key(), remaining, inputKey)
	if c.memo[mk] {
		return nil, nil
	}
	c.visits++
	if c.maxVisits > 0 && c.visits > c.maxVisits {
		return nil, fmt.Errorf("after %d visits: %w", c.visits, valence.ErrBudget)
	}
	if w := partialOutputRef(x, allowed); w != nil {
		w.Exec = exec
		return w, nil
	}
	if remaining == 0 {
		if !core.AllDecided(x) {
			return &decision.TaskWitness{
				Kind:   decision.TaskUndecidedAtBound,
				Exec:   exec,
				Detail: fmt.Sprintf("a non-failed process is undecided after %d layers", c.bound),
			}, nil
		}
		c.memo[mk] = true
		return nil, nil
	}
	for _, s := range c.m.Successors(x) {
		if w := taskWriteOnceRef(x, s.State); w != nil {
			w.Exec = exec.Extend(s.Action, s.State)
			return w, nil
		}
		w, err := c.dfs(s.State, remaining-1, inputKey, allowed, exec.Extend(s.Action, s.State))
		if err != nil || w != nil {
			return w, err
		}
	}
	c.memo[mk] = true
	return nil, nil
}

// partialOutputRef: the decisions of the non-failed processes must be a
// face of some allowed output simplex.
func partialOutputRef(x core.State, allowed []simplex.Simplex) *decision.TaskWitness {
	var verts []simplex.Vertex
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		if v, ok := x.Decided(i); ok {
			verts = append(verts, simplex.Vertex{ID: i, Value: v})
		}
	}
	if len(verts) == 0 {
		return nil
	}
	partial, err := simplex.New(verts...)
	if err != nil {
		return &decision.TaskWitness{Kind: decision.TaskOutputViolation, Detail: err.Error()}
	}
	for _, a := range allowed {
		if a.Contains(partial) {
			return nil
		}
	}
	return &decision.TaskWitness{
		Kind:   decision.TaskOutputViolation,
		Detail: fmt.Sprintf("decisions %s extend no simplex of Δ(input)", partial),
	}
}

// taskWriteOnceRef: every decision survives the step.
func taskWriteOnceRef(x, y core.State) *decision.TaskWitness {
	for i := 0; i < x.N(); i++ {
		v, ok := x.Decided(i)
		if !ok {
			continue
		}
		w, ok2 := y.Decided(i)
		if !ok2 || w != v {
			return &decision.TaskWitness{
				Kind:   decision.TaskDecisionChanged,
				Detail: fmt.Sprintf("process %d had decided %d but successor reports (%d,%v)", i, v, w, ok2),
			}
		}
	}
	return nil
}
