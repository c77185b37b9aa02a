package layers_test

// Deeper parameter sweeps, skipped under -short: they push the same
// experiments to larger n, t, and depths to confirm the shapes hold beyond
// the fast configurations.

import (
	"testing"

	layers "repro"
)

func TestSlowSyncLowerBoundN5T3(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep")
	}
	const n, tt = 5, 3
	good := layers.SyncSt(layers.FloodSet{Rounds: tt + 1}, n, tt)
	w, err := layers.Certify(good, tt+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != layers.OK {
		t.Errorf("FloodSet(t+1) n=5 t=3: %v", w.Kind)
	}
	fast := layers.SyncSt(layers.FloodSet{Rounds: tt}, n, tt)
	w, err = layers.Certify(fast, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == layers.OK {
		t.Error("FloodSet(t) n=5 t=3 certified")
	}
	if w.Exec.Len() != tt {
		t.Errorf("witness depth = %d, want %d", w.Exec.Len(), tt)
	}
}

func TestSlowEarlyFloodSetN5(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep")
	}
	const n, tt = 5, 3
	m := layers.SyncSt(layers.EarlyFloodSet{MaxRounds: tt + 1}, n, tt)
	w, err := layers.Certify(m, tt+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != layers.OK {
		t.Errorf("EarlyFloodSet n=5 t=3: %v (%s)", w.Kind, w.Detail)
	}
}

// TestSlowParallelCertifyAgrees checks that certifying over a graph explored
// in parallel agrees with certifying over a serially explored one; the
// engine itself is checked against the recursive reference at this
// configuration in internal/valence.
func TestSlowParallelCertifyAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep")
	}
	const n, tt = 5, 2
	m := layers.SyncSt(layers.FloodSet{Rounds: tt + 1}, n, tt)
	g, err := layers.ExploreIDCtx(nil, m, tt+1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := layers.CertifyGraphCtx(nil, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Certify explores the graph with GOMAXPROCS workers before the graph
	// certifier runs. It gets a model of its own: m would hand it the graph
	// explored above.
	par, err := layers.Certify(layers.SyncSt(layers.FloodSet{Rounds: tt + 1}, n, tt), tt+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Kind != par.Kind || seq.Explored != par.Explored {
		t.Errorf("sequential (%v, %d) != parallel (%v, %d)", seq.Kind, seq.Explored, par.Kind, par.Explored)
	}
}

func TestSlowMobileDeepChain(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep")
	}
	const n, rounds = 4, 4
	m := layers.MobileS1(layers.FloodSet{Rounds: rounds}, n)
	ch, err := fieldTo(t, m, rounds).BivalentChain(rounds - 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stuck != nil || ch.Reached != rounds-1 {
		t.Errorf("deep chain reached %d of %d", ch.Reached, rounds-1)
	}
}

func TestSlowAsyncMPDepth2N3(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep")
	}
	m := layers.AsyncMessagePassing(layers.MPFlood{Phases: 2}, 3)
	w, err := layers.Certify(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == layers.OK {
		t.Error("consensus certified in async MP at depth 2")
	}
}

func TestSlowIISDepth2(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep")
	}
	m := layers.IteratedImmediateSnapshot(layers.SMVote{Phases: 2}, 3)
	w, err := layers.Certify(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == layers.OK {
		t.Error("consensus certified in IIS at depth 2")
	}
}
