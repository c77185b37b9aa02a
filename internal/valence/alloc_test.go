package valence_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// allocGraph materializes the steady-state fixture: a graded
// FloodSet(t+1) graph — certifiably correct, so the clean (OK) paths run —
// whose per-graph caches (decided planes, certifier check planes) are
// warmed by one field sweep and one certification, so AllocsPerRun sees
// only the per-sweep cost.
func allocGraph(t testing.TB, n int) *core.IDGraph {
	t.Helper()
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, n, 1)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := valence.NewFieldCtx(nil, g); err != nil {
		t.Fatal(err)
	}
	if w, err := valence.CertifyGraph(nil, g, 0); err != nil || w.Kind != valence.OK {
		t.Fatalf("fixture verdict = %v, %v; want OK", w, err)
	}
	return g
}

// Per-call allocation bounds over a warmed graph. A field is its struct
// and two planes; a certification is its certifier, the visited map and
// one bitset per input class, the DFS stack's growth and the verdict. None
// of these counts depends on the number of nodes.
const (
	fieldAllocBound   = 3
	certifyAllocBound = 8
)

// TestFieldSweepAllocBound bounds NewFieldCtx's allocations over a warmed
// graph by a constant: the same bound holds on graphs of 50 to 274 nodes,
// so the planes are allocated per sweep, never per node or layer.
func TestFieldSweepAllocBound(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		g := allocGraph(t, n)
		avg := testing.AllocsPerRun(20, func() {
			if _, err := valence.NewFieldCtx(nil, g); err != nil {
				t.Fatal(err)
			}
		})
		if avg > fieldAllocBound {
			t.Errorf("n=%d (%d nodes): field sweep %v allocs/op, want <= %d", n, g.Len(), avg, fieldAllocBound)
		}
	}
}

// TestCertifyGraphAllocBound bounds a clean CertifyGraph's allocations over
// a warmed graph by the same constant at every graph size: the visited
// bitsets are one per input class, not one per node or visit.
func TestCertifyGraphAllocBound(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		g := allocGraph(t, n)
		avg := testing.AllocsPerRun(20, func() {
			if _, err := valence.CertifyGraph(nil, g, 0); err != nil {
				t.Fatal(err)
			}
		})
		if avg > certifyAllocBound {
			t.Errorf("n=%d (%d nodes): certification %v allocs/op, want <= %d", n, g.Len(), avg, certifyAllocBound)
		}
	}
}
