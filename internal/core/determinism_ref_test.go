package core

import "fmt"

// CheckDeterminism verifies that the model's successor function is
// deterministic on every explored state: a second invocation returns the
// same labeled successors in the same order. Admissibility (the paper's
// pasting condition) holds by construction for R_S when S is a function of
// the state alone; determinism is the executable face of that requirement.
// When the model carries a successor cache the check bypasses it, so the
// raw successor function is what is re-invoked. Nodes are checked in id
// order, so a failure always reports the same offending state.
func (g *IDGraph) CheckDeterminism(m Model) error {
	s := CacheOf(m).Uncached()
	for u := range g.States {
		actions, to := g.Out(uint32(u))
		if len(to) == 0 {
			continue
		}
		k := g.Keys[u]
		again := s.Successors(g.States[u])
		if len(again) != len(to) {
			return fmt.Errorf("core: successor count changed for state %q: %d then %d", k, len(to), len(again))
		}
		for i, sc := range again {
			if sc.Action != actions[i] || sc.State.Key() != g.Keys[to[i]] {
				return fmt.Errorf("core: successor %d changed for state %q: (%s,%s) then (%s,%s)",
					i, k, actions[i], g.Keys[to[i]], sc.Action, sc.State.Key())
			}
		}
	}
	return nil
}
