package syncmp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// TestRoundMemoCounts pins the round memo's work on the coldbench
// mobile_refute and sync_lowerbound models, explored cold to their bounds
// at one worker: receiver resolutions (RoundMemo.deliver calls) under a
// ceiling, and exactly the resolutions the memos' own lists could not
// answer and the Deliver runs behind those, which no resolution rule may
// change. Re-resolving every receiver an action's omission set can change
// took 22,264, 39,809, 24,837 and 25,783 resolutions; re-resolving only
// the critical ones takes 2,534, 3,384, 4,029 and 4,994, the ceilings. A
// ceiling may go down; raising one is a regression to explain.
func TestRoundMemoCounts(t *testing.T) {
	for _, c := range []struct {
		name                   string
		m                      core.Model
		depth                  int
		resolved, misses, runs uint64
	}{
		{"MobileS1 FloodSet(3) n=7", mobile.New(protocols.FloodSet{Rounds: 3}, 7), 3, 2534, 2150, 28},
		{"MobileS1 FloodSet(2) n=8", mobile.New(protocols.FloodSet{Rounds: 2}, 8), 2, 3384, 3036, 17},
		{"SyncSt FloodSet(3) n=7 t=2", syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 7, 2), 3, 4029, 3759, 28},
		{"SyncSt FloodSet(4) n=6 t=3", syncmp.NewSt(protocols.FloodSet{Rounds: 4}, 6, 3), 4, 4994, 4718, 39},
	} {
		g, err := core.ExploreIDCtx(nil, c.m, c.depth, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		resolved, misses, runs := syncmp.MemoCounts(g.States[0].(*syncmp.State))
		t.Logf("%s: %d resolutions, %d list misses, %d Deliver runs", c.name, resolved, misses, runs)
		if resolved > c.resolved {
			t.Errorf("%s: %d resolutions, want at most %d", c.name, resolved, c.resolved)
		}
		if misses != c.misses || runs != c.runs {
			t.Errorf("%s: %d list misses and %d Deliver runs, want %d and %d", c.name, misses, runs, c.misses, c.runs)
		}
	}
}
