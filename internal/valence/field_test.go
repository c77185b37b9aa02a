package valence_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/iis"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/shmem"
	"repro/internal/snapshot"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// newField sweeps the valence field of g, failing the test on any error.
func newField(t testing.TB, g *core.IDGraph) *valence.Field {
	t.Helper()
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fieldTo explores m to depth and sweeps the field of the graph: node
// masks at depth d are valences within horizon depth-d.
func fieldTo(t testing.TB, m core.Model, depth int) *valence.Field {
	t.Helper()
	g, err := core.ExploreIDCtx(nil, m, depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return newField(t, g)
}

// fieldModels builds one instance of each of the repository's nine model
// types. rounds parameterizes the protocol; heavy marks the families whose
// layer branching explodes fastest, so callers can cap their depth.
func fieldModels(n, tf, rounds int) []struct {
	name  string
	m     core.Model
	heavy bool
} {
	sp := proto.SyncProtocol(protocols.FloodSet{Rounds: rounds})
	smp := proto.SMProtocol(protocols.SMVote{Phases: rounds})
	mpp := proto.MPProtocol(protocols.MPFlood{Phases: rounds})
	return []struct {
		name  string
		m     core.Model
		heavy bool
	}{
		{"mobile", mobile.New(sp, n), false},
		{"mobile-full", mobile.NewFull(sp, n), false},
		{"syncmp-st", syncmp.NewSt(sp, n, tf), false},
		{"syncmp-multi", syncmp.NewStMulti(sp, n, tf, 1), false},
		{"shmem", shmem.New(smp, n), true},
		{"asyncmp", asyncmp.New(mpp, n), true},
		{"asyncmp-synchronic", asyncmp.NewSynchronic(mpp, n), true},
		{"iis", iis.New(smp, n), true},
		{"snapshot", snapshot.New(smp, n), true},
	}
}

// TestFieldPropertyMatchesOracle is the defining property of the valence
// field: for a graph explored to depth B, the field mask of every node
// equals Oracle.Valences(state, B-depth) — the residual exploration depth
// is the valence horizon. Checked across all nine model types and n in
// {2,3,4}.
func TestFieldPropertyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))

	for _, n := range []int{2, 3, 4} {
		tf := 1
		if n > 2 {
			tf = 1 + rng.Intn(n-2)
		}
		rounds := 1 + rng.Intn(2)
		for _, mc := range fieldModels(n, tf, rounds) {
			depth := 2
			if mc.heavy && n >= 4 {
				depth = 1
			}
			name := fmt.Sprintf("%s-n%d-t%d-r%d-d%d", mc.name, n, tf, rounds, depth)
			t.Run(name, func(t *testing.T) {
				g, err := core.ExploreIDCtx(nil, mc.m, depth, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				ref := newField(t, g)
				if g.Graded() {
					// Exact horizon semantics: field mask == Valences at
					// the residual exploration depth.
					o := valence.NewOracle(mc.m)
					for u := 0; u < g.Len(); u++ {
						horizon := g.Depth - int(g.DepthOf[u])
						want := o.Valences(g.States[u], horizon)
						if got := ref.Mask(uint32(u)); got != want {
							t.Fatalf("node %d (depth %d): field mask %02b != oracle %02b",
								u, g.DepthOf[u], got, want)
						}
					}
				} else {
					// Async families at small n produce same-depth shortcut
					// edges; the fallback's fixpoint mask is the union of
					// decided bits over everything reachable in the
					// explored graph. Check against a per-node closure.
					for u := 0; u < g.Len(); u++ {
						want := reachableDecided(g, uint32(u))
						if got := ref.Mask(uint32(u)); got != want {
							t.Fatalf("node %d: fixpoint mask %02b != closure %02b", u, got, want)
						}
					}
				}
			})
		}
	}
}

// reachableDecided is the reference for the non-graded fallback: the OR of
// decided bits over every node reachable from u along recorded edges.
func reachableDecided(g *core.IDGraph, u uint32) uint8 {
	seen := make([]bool, g.Len())
	stack := []uint32{u}
	seen[u] = true
	var mask uint8
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		mask |= uint8(core.DecidedValues(g.States[v]) & 0b11)
		_, to := g.Out(v)
		for _, w := range to {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return mask
}

// TestFieldConsumers checks the field-backed consumer paths against their
// Oracle-backed references on one model: Width vs BivalenceWidth,
// AnalyzeNode vs AnalyzeLayer, and BivalentChain vs BivalentChain.
func TestFieldConsumers(t *testing.T) {
	const n, bound = 3, 3
	m := mobile.New(protocols.FloodSet{Rounds: 2}, n)
	g, err := core.ExploreIDCtx(nil, m, bound, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := newField(t, g)
	o := valence.NewOracle(m)
	horizon := valence.DecreasingHorizon(bound, 0)

	wp, err := valence.BivalenceWidth(m, o, horizon, bound, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := f.Width()
	for d := 0; d <= bound; d++ {
		if wp.States[d] != fp.States[d] || wp.Bivalent[d] != fp.Bivalent[d] ||
			wp.Univalent0[d] != fp.Univalent0[d] || wp.Univalent1[d] != fp.Univalent1[d] ||
			wp.Null[d] != fp.Null[d] {
			t.Errorf("width profile differs at depth %d: oracle %+v field %+v", d, wp, fp)
		}
	}

	// AnalyzeNode on every non-frontier node against AnalyzeLayer with the
	// matching horizon.
	for u := 0; u < g.Len(); u++ {
		d := int(g.DepthOf[u])
		if d >= bound {
			continue
		}
		or := valence.AnalyzeLayer(m, o, g.States[u], bound-d-1)
		fr := f.AnalyzeNode(uint32(u))
		if len(or.States) != len(fr.States) {
			t.Fatalf("node %d: layer sizes differ: %d vs %d", u, len(or.States), len(fr.States))
		}
		for i := range or.States {
			if or.States[i].Key() != fr.States[i].Key() {
				t.Fatalf("node %d state %d: order differs", u, i)
			}
			if or.Valences[i] != fr.Valences[i] {
				t.Fatalf("node %d state %d: valence %02b vs %02b", u, i, or.Valences[i], fr.Valences[i])
			}
		}
		if or.ValenceConnected != fr.ValenceConnected ||
			or.SimilarityConnected != fr.SimilarityConnected ||
			or.SDiameter != fr.SDiameter {
			t.Fatalf("node %d: connectivity summary differs", u)
		}
	}

	oc, err := valence.BivalentChain(m, o, horizon, bound)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := f.BivalentChain(bound)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Reached != fc.Reached {
		t.Fatalf("chain reached %d vs %d", oc.Reached, fc.Reached)
	}
	if oc.Exec.Init.Key() != fc.Exec.Init.Key() {
		t.Error("chain inits differ")
	}
	for i := range oc.Exec.Steps {
		if oc.Exec.Steps[i].Action != fc.Exec.Steps[i].Action {
			t.Errorf("chain step %d: %q vs %q", i, oc.Exec.Steps[i].Action, fc.Exec.Steps[i].Action)
		}
	}
}

// TestFieldBivalentAtBound pins the Lemma 3.2 refutation helper: under the
// mobile-failure adversary FloodSet cannot decide in 2 rounds at n=3, so
// layer 1 still holds a bivalent state, and the walkback execution
// actually reaches the reported node.
func TestFieldBivalentAtBound(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := newField(t, g)
	u, exec, ok := f.BivalentAtBound(1)
	if !ok {
		t.Fatal("no bivalent state at layer 1")
	}
	if !f.Bivalent(u) {
		t.Fatal("reported node not bivalent")
	}
	if exec.Len() != 1 || exec.Last().Key() != g.Keys[u] {
		t.Fatalf("walkback execution wrong: len %d last %q", exec.Len(), exec.Last().Key())
	}
	// Layer 0: the mixed-input inits are bivalent, with an empty execution.
	r, exec0, ok := f.BivalentAtBound(0)
	if !ok || exec0.Len() != 0 || exec0.Init.Key() != g.Keys[r] {
		t.Fatalf("layer-0 witness wrong: ok=%v", ok)
	}
}
