package syncmp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// TestColdExploreAllocsPerEdge bounds the allocations of one cold serial
// exploration, model construction included, per edge, on the coldbench
// sync_lowerbound and mobile_refute models to depth 3. Go 1.24 on
// linux/amd64 measured 7.90 (SyncSt) and 6.87 (MobileS1) when every
// successor was built in full before interning dropped the duplicates
// (a traced coldbench run gave 7.6 and 6.5 over the whole pools), and
// 1.67 and 1.80 with key-first probing over the local-state tables, where
// a duplicate successor costs no allocation at all. The bound sits above
// the latter and well under the former.
func TestColdExploreAllocsPerEdge(t *testing.T) {
	p := protocols.FloodSet{Rounds: 3}
	for _, c := range []struct {
		name  string
		mk    func() core.Model
		bound float64
	}{
		{"SyncSt FloodSet(3) n=7 t=2", func() core.Model { return syncmp.NewSt(p, 7, 2) }, 3},
		{"MobileS1 FloodSet(3) n=7", func() core.Model { return mobile.New(p, 7) }, 3},
	} {
		edges := 0
		allocs := testing.AllocsPerRun(3, func() {
			g, err := core.ExploreIDCtx(nil, c.mk(), 3, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			edges = g.NumEdges()
		})
		perEdge := allocs / float64(edges)
		t.Logf("%s: %d edges, %.2f allocs per edge", c.name, edges, perEdge)
		if perEdge > c.bound {
			t.Errorf("%s: %.2f allocs per edge, want at most %.1f", c.name, perEdge, c.bound)
		}
	}
}
