package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
)

// TestSuccessorsAreInterned checks that the cache returns, for every
// successor, the very state interned under its id. In mobile n=3 the
// action (0,[1]) only drops the message 0→0, which is never sent, so its
// successor duplicates noop's: the pair must share one state value. A
// second enumeration returns the same state values under the same ids.
func TestSuccessorsAreInterned(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	c := core.CacheOf(m)
	x := m.Initial([]int{0, 1, 1})
	succs, ids := c.Enumerate(x)
	idx := map[string]int{}
	for i, s := range succs {
		if s.State != c.StateOf(ids[i]) {
			t.Errorf("successor %d (%s) is not the state interned under id %d", i, s.Action, ids[i])
		}
		idx[s.Action] = i
	}
	noop, dup := idx["noop"], idx["(0,[1])"]
	if ids[noop] != ids[dup] {
		t.Fatalf("noop and (0,[1]) interned as %d and %d, want one id", ids[noop], ids[dup])
	}
	if succs[noop].State != succs[dup].State {
		t.Error("noop and (0,[1]) carry distinct state values for one id")
	}
	again, againIDs := c.Enumerate(x)
	for i := range again {
		if again[i].State != succs[i].State || againIDs[i] != ids[i] {
			t.Errorf("successor %d of the second enumeration differs from the first", i)
		}
	}
}
