package snapshot_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/snapshot"
	"repro/internal/valence"
)

// TestTranspositionChainSnapshot: the identical similarity chain as in
// message passing holds in the snapshot model — the paper's layering
// analysis is model-independent.
func TestTranspositionChainSnapshot(t *testing.T) {
	const n = 3
	m := snapshot.New(protocols.SMFullInfo{}, n)
	x := m.Initial([]int{0, 1, 1})
	perms := [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}, {1, 2, 0}, {0, 2, 1}, {2, 0, 1}}
	for _, p := range perms {
		for k := 0; k+1 < n; k++ {
			seq := m.Sequential(x, p)
			conc := m.WithPair(x, p, k)
			swapped := append([]int(nil), p...)
			swapped[k], swapped[k+1] = swapped[k+1], swapped[k]
			seq2 := m.Sequential(x, swapped)
			if !core.AgreeModulo(seq, conc, p[k]) {
				t.Errorf("perm %v k=%d: seq and conc do not agree modulo %d", p, k, p[k])
			}
			if !core.AgreeModulo(conc, seq2, p[k+1]) {
				t.Errorf("perm %v k=%d: conc and swapped do not agree modulo %d", p, k, p[k+1])
			}
		}
	}
}

// TestDiamondIdentitySnapshot: the minimal FLP diamond is an exact state
// equality here as well.
func TestDiamondIdentitySnapshot(t *testing.T) {
	const n = 3
	m := snapshot.New(protocols.SMFullInfo{}, n)
	for a := 0; a < 1<<n; a++ {
		x := m.Initial([]int{a & 1, (a >> 1) & 1, (a >> 2) & 1})
		y := m.Sequential(m.Sequential(x, []int{0, 1, 2}), []int{0, 1})
		yp := m.Sequential(m.Sequential(x, []int{0, 1}), []int{2, 0, 1})
		if y.Key() != yp.Key() {
			t.Errorf("inputs %03b: diamond states differ", a)
		}
	}
}

// TestCertifySnapshotRefuted: consensus is impossible here too; the same
// flooding heuristic is refuted.
func TestCertifySnapshotRefuted(t *testing.T) {
	for _, phases := range []int{1, 2} {
		m := snapshot.New(protocols.SMVote{Phases: phases}, 3)
		w, err := valence.Certify(nil, m, phases, 4_000_000)
		if err != nil {
			t.Fatalf("phases=%d: %v", phases, err)
		}
		if w.Kind == valence.OK {
			t.Errorf("phases=%d: consensus certified in the snapshot model", phases)
		}
	}
}

// TestLayerValenceConnectedSnapshot: Lemma 4.1's precondition holds.
func TestLayerValenceConnectedSnapshot(t *testing.T) {
	const n, phases = 3, 2
	m := snapshot.New(protocols.SMVote{Phases: phases}, n)
	g, err := core.ExploreIDCtx(nil, m, phases+1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range g.Inits {
		if r := f.AnalyzeNode(u); !r.ValenceConnected {
			t.Errorf("init %q: snapshot layer not valence connected", g.Keys[u])
		}
	}
}

// TestSegmentsAreEnvironment: the snapshot object lives in EnvKey; an
// unscheduled process's segment and local are untouched.
func TestSegmentsAreEnvironment(t *testing.T) {
	const n = 3
	m := snapshot.New(protocols.SMVote{Phases: 2}, n)
	x := m.Initial([]int{1, 1, 1})
	y := m.Sequential(x, []int{0, 1}) // 2 does not move
	if y.Local(2) != x.Local(2) {
		t.Error("unscheduled process's local changed")
	}
	if segs, err := proto.Split(y.EnvKey()); err != nil || segs[2] != "" {
		t.Errorf("unscheduled process's segment changed: %q", segs)
	}
	if y.EnvKey() == x.EnvKey() {
		t.Error("updates did not reach the environment")
	}
}

// TestSnapshotMatchesAsyncmpActionCount: both permutation-layered models
// offer the same action set.
func TestSnapshotMatchesAsyncmpActionCount(t *testing.T) {
	const n = 3
	m := snapshot.New(protocols.SMVote{Phases: 2}, n)
	x := m.Initial([]int{0, 1, 1})
	fact := 6
	want := fact + fact + (n-1)*fact/2
	if got := len(m.Successors(x)); got != want {
		t.Errorf("|S(x)| = %d, want %d", got, want)
	}
}
