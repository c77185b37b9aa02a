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
// whose per-graph caches (decided planes, certifier check planes, layer
// layout) are warmed by one field sweep and one certification, so
// AllocsPerRun sees only the per-sweep cost.
func allocGraph(t testing.TB, n int) *core.IDGraph {
	t.Helper()
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, n, 1)
	g, err := core.ExploreID(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFieldSweepZeroAlloc proves the tentpole's allocation claim for the
// field: after arena warmup, a Sweep.Field over a fixed graph is 0
// allocs/op.
func TestFieldSweepZeroAlloc(t *testing.T) {
	g := allocGraph(t, 4)
	var s valence.Sweep
	if _, err := s.Field(g); err != nil { // warm the arena and the per-graph caches
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := s.Field(g); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state field sweep: %v allocs/op, want 0 (arena %d bytes)", avg, s.Bytes())
	}
}

// TestCertifyGraphZeroAlloc proves the claim for the certifier: after
// warmup, a clean Sweep.CertifyGraph over a fixed graph is 0 allocs/op —
// the visited bitsets come from the arena, the map and stack are reused,
// and the OK witness is the certifier's own.
func TestCertifyGraphZeroAlloc(t *testing.T) {
	g := allocGraph(t, 4)
	var s valence.Sweep
	w, err := s.CertifyGraph(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != valence.OK {
		t.Fatalf("fixture verdict = %v, want OK", w.Kind)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, cerr := s.CertifyGraph(g, 0); cerr != nil {
			t.Fatal(cerr)
		}
	}); avg != 0 {
		t.Fatalf("steady-state certification: %v allocs/op, want 0 (arena %d bytes)", avg, s.Bytes())
	}
}

// TestSweepResultsMatchPackageLevel pins the Sweep front end to the
// allocating entry points: same masks, same verdict, same Explored count.
func TestSweepResultsMatchPackageLevel(t *testing.T) {
	g := allocGraph(t, 3)
	var s valence.Sweep
	wantF := newField(t, g)
	gotF, err := s.Field(g)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := wantF.Masks(), gotF.Masks(); string(want) != string(got) {
		t.Fatal("Sweep.Field masks differ from NewFieldCtx")
	}
	wantW, err := valence.CertifyGraph(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotW, err := s.CertifyGraph(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wantW.Kind != gotW.Kind || wantW.Explored != gotW.Explored {
		t.Fatalf("Sweep.CertifyGraph = (%v, %d), want (%v, %d)",
			gotW.Kind, gotW.Explored, wantW.Kind, wantW.Explored)
	}
}
