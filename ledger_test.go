package layers_test

import (
	"io"
	"runtime"
	"testing"

	layers "repro"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/valence"
)

// TestColdExploreBytesPerEdge bounds the bytes one cold serial exploration
// to depth 3 allocates per edge (runtime.MemStats.TotalAlloc, the least of
// three runs, model construction excluded) on three coldbench models and
// the three shared-memory families. An edge is two uint32 ids in the graph
// and in its worker's shard buffer, so what is left per edge is mostly the
// states, the intern tables and the growth of those arrays. Go 1.24 on
// linux/amd64 measured 115, 125 and 258 B/edge when every edge carried a
// label string in the graph and a core.Succ in a per-source list, and
// 54.5, 85.3 and 192 B/edge with label ids. The shared-memory rows read
// 721, 912 and 4,826 B/edge when those models built every successor before
// the cache saw it, and 115, 101 and 2,895 B/edge key-first.
func TestColdExploreBytesPerEdge(t *testing.T) {
	for _, c := range []struct {
		name    string
		mk      func() layers.Model
		ceiling float64
	}{
		{"MobileS1 FloodSet(3) n=7", func() layers.Model { return layers.MobileS1(protocols.FloodSet{Rounds: 3}, 7) }, 60},
		{"SyncSt FloodSet(3) n=7 t=2", func() layers.Model { return layers.SyncSt(protocols.FloodSet{Rounds: 3}, 7, 2) }, 95},
		{"S^per MPFlood(3) n=3", func() layers.Model { return layers.AsyncMessagePassing(protocols.MPFlood{Phases: 3}, 3) }, 210},
		{"S^rw SMVote(3) n=3", func() layers.Model { return layers.SharedMemory(protocols.SMVote{Phases: 3}, 3) }, 125},
		{"snapshot SMVote(3) n=3", func() layers.Model { return layers.SnapshotMemory(protocols.SMVote{Phases: 3}, 3) }, 110},
		{"IIS SMFullInfo n=3", func() layers.Model { return layers.IteratedImmediateSnapshot(protocols.SMFullInfo{}, 3) }, 3150},
	} {
		least := 0.0
		for run := 0; run < 3; run++ {
			m := c.mk()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g, err := layers.ExploreIDCtx(nil, m, 3, 0, 1)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumEdges())
			if run == 0 || perEdge < least {
				least = perEdge
			}
		}
		t.Logf("%s: %.1f B/edge", c.name, least)
		if least > c.ceiling {
			t.Errorf("%s: %.1f B/edge, want at most %.0f", c.name, least, c.ceiling)
		}
	}
}

// TestWarmExploreAllocatesNothingPerSource: an exploration over a warm
// intern table (a node budget makes it explore afresh instead of reusing
// the remembered graph) builds no state, so what it allocates is the
// graph's arrays, once per layer, and the growth of its shard buffers:
// nothing per expanded source. Go 1.24 on linux/amd64 measured 142, 156
// and 143 allocations for 242, 481 and 1,496 expanded sources, against
// 618, 1,115 and 3,202 when each source's successors came back as a fresh
// []core.Succ and id list. The shared-memory rows read 144, 149 and 164
// for 171, 277 and 1,464 sources, against 52,096, 112,856 and 389,574
// when those models built every successor before the cache saw it.
func TestWarmExploreAllocatesNothingPerSource(t *testing.T) {
	const ceiling = 200
	for _, c := range []struct {
		name string
		m    layers.Model
	}{
		{"MobileS1 FloodSet(3) n=7", layers.MobileS1(protocols.FloodSet{Rounds: 3}, 7)},
		{"SyncSt FloodSet(3) n=7 t=2", layers.SyncSt(protocols.FloodSet{Rounds: 3}, 7, 2)},
		{"S^per MPFlood(3) n=3", layers.AsyncMessagePassing(protocols.MPFlood{Phases: 3}, 3)},
		{"S^rw SMVote(3) n=3", layers.SharedMemory(protocols.SMVote{Phases: 3}, 3)},
		{"snapshot SMVote(3) n=3", layers.SnapshotMemory(protocols.SMVote{Phases: 3}, 3)},
		{"IIS SMFullInfo n=3", layers.IteratedImmediateSnapshot(protocols.SMFullInfo{}, 3)},
	} {
		g, err := layers.ExploreIDCtx(nil, c.m, 3, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sources := 0
		for u := 0; u < g.Len(); u++ {
			if g.EdgeStart[u+1] > g.EdgeStart[u] {
				sources++
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := layers.ExploreIDCtx(nil, c.m, 3, 1<<30, 1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations for %d expanded sources", c.name, allocs, sources)
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocations for %d expanded sources, want at most %d", c.name, allocs, sources, ceiling)
		}
	}
}

// TestObsCallsPerPipeline bounds the instrumentation of one traced,
// journaled explore → field → certify pipeline at one worker: the
// recorder's Add, Set, Record and Event calls (obs.calls) and the events
// the journal accepts, span pairs included. Instrumentation is per run,
// phase or layer, never per node: the five models have 299 to 7,520
// states, so one call or span per node breaks a ceiling. The ceilings are
// the counts Go 1.24 on linux/amd64 measured when the row was added. A
// ceiling may only go down; raising one needs a CHANGES.md line that names
// it, gives both values and says why.
func TestObsCallsPerPipeline(t *testing.T) {
	for _, c := range []struct {
		name          string
		m             layers.Model
		depth         int
		calls, events int64
	}{
		{"MobileS1 FloodSet(3) n=7", layers.MobileS1(protocols.FloodSet{Rounds: 3}, 7), 3, 42, 163},
		{"MobileS1 FloodSet(2) n=8", layers.MobileS1(protocols.FloodSet{Rounds: 2}, 8), 2, 35, 285},
		{"SyncSt FloodSet(3) n=7 t=2", layers.SyncSt(protocols.FloodSet{Rounds: 3}, 7, 2), 3, 42, 291},
		{"SyncSt FloodSet(4) n=6 t=3", layers.SyncSt(protocols.FloodSet{Rounds: 4}, 6, 3), 4, 49, 169},
		{"S^per MPFlood(3) n=3", layers.AsyncMessagePassing(protocols.MPFlood{Phases: 3}, 3), 3, 36, 26},
	} {
		m := obs.NewMetrics()
		j := obs.NewJournal(io.Discard)
		m.SetJournal(j)
		obs.Enable(m)
		obs.EnableTrace(obs.NewTracer(m, j))
		g, err := layers.ExploreIDCtx(nil, c.m, c.depth, 0, 1)
		if err == nil {
			_, err = layers.NewFieldCtx(nil, g)
		}
		if err == nil {
			_, err = valence.CertifyGraph(nil, g, 0)
		}
		obs.DisableTrace()
		obs.Disable()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		calls, events := m.Snapshot()["obs.calls"], j.Len()
		t.Logf("%s: %d states, %d recorder calls, %d journal events", c.name, g.Len(), calls, events)
		if calls > c.calls || events > c.events {
			t.Errorf("%s: %d recorder calls and %d journal events, want at most %d and %d", c.name, calls, events, c.calls, c.events)
		}
	}
}
