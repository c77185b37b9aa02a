package layers_test

// Equivalence property test for the sharded successor cache: graphs
// explored through the hash-sharded SuccessorCache must be bit-identical —
// node numbering, keys, depths, layers, inits, CSR edge order, and budget
// cut points — to a reference exploration with the legacy single-table
// interning, at any worker count, and across checkpoint/resume cuts. The
// reference (refExplore) is a plain breadth-first search over the raw
// successor function with one map[string]uint32, written here and sharing
// no code with the engine. Cache ids are racy under parallel warming; the
// deterministic frontier-order merge is what canonicalizes the published
// graph, and this test is the pin. Run under -race via the Makefile race
// target.

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/iis"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/resilient"
	"repro/internal/shmem"
	"repro/internal/snapshot"
	"repro/internal/syncmp"
)

// equivCase is one model of the nine-family zoo with an exploration depth
// sized so the heavy asynchronous families stay test-suite cheap. mk builds
// a fresh model instance, so every exploration starts from a cold cache.
type equivCase struct {
	name  string
	mk    func() core.Model
	depth int
}

func equivZoo() []equivCase {
	sp := proto.SyncProtocol(protocols.FloodSet{Rounds: 2})
	smp := proto.SMProtocol(protocols.SMVote{Phases: 2})
	mpp := proto.MPProtocol(protocols.MPFlood{Phases: 2})
	return []equivCase{
		{"mobile", func() core.Model { return mobile.New(sp, 3) }, 3},
		{"mobile-full", func() core.Model { return mobile.NewFull(sp, 3) }, 2},
		{"syncmp-st", func() core.Model { return syncmp.NewSt(sp, 3, 1) }, 2},
		{"syncmp-multi", func() core.Model { return syncmp.NewStMulti(sp, 3, 1, 1) }, 2},
		{"shmem", func() core.Model { return shmem.New(smp, 2) }, 2},
		{"asyncmp", func() core.Model { return asyncmp.New(mpp, 2) }, 2},
		{"asyncmp-synchronic", func() core.Model { return asyncmp.NewSynchronic(mpp, 2) }, 2},
		{"iis", func() core.Model { return iis.New(smp, 2) }, 2},
		{"snapshot", func() core.Model { return snapshot.New(smp, 2) }, 2},
	}
}

// refGraph is the reference exploration's output: the published arrays of
// an IDGraph, and whether the node budget cut the search.
type refGraph struct {
	keys       []string
	depthOf    []int32
	inits      []uint32
	edgeStart  []uint32
	edgeAction []string
	edgeTo     []uint32
	budgetHit  bool
}

// refExplore is the reference breadth-first exploration: ids in discovery
// order from one map, edges appended per frontier node in frontier order,
// and the search stops at the first new state past maxNodes (0 = no
// bound), leaving that node's edges so far in place.
func refExplore(m core.Model, depth, maxNodes int) *refGraph {
	raw := core.CacheOf(m).Uncached()
	r := &refGraph{edgeStart: []uint32{0}}
	ids := make(map[string]uint32)
	var states []core.State
	add := func(x core.State, key string, d int) uint32 {
		u := uint32(len(r.keys))
		ids[key] = u
		r.keys = append(r.keys, key)
		r.depthOf = append(r.depthOf, int32(d))
		states = append(states, x)
		return u
	}
	var frontier []uint32
	for _, x := range m.Inits() {
		k := x.Key()
		if _, seen := ids[k]; !seen {
			u := add(x, k, 0)
			r.inits = append(r.inits, u)
			frontier = append(frontier, u)
		}
	}
search:
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []uint32
		for _, u := range frontier {
			for _, s := range raw.Successors(states[u]) {
				k := s.State.Key()
				v, seen := ids[k]
				if !seen {
					if maxNodes > 0 && len(r.keys) >= maxNodes {
						r.budgetHit = true
						break search
					}
					v = add(s.State, k, d+1)
					next = append(next, v)
				}
				r.edgeAction = append(r.edgeAction, s.Action)
				r.edgeTo = append(r.edgeTo, v)
			}
			r.edgeStart = append(r.edgeStart, uint32(len(r.edgeTo)))
		}
		frontier = next
	}
	for len(r.edgeStart) < len(r.keys)+1 {
		r.edgeStart = append(r.edgeStart, uint32(len(r.edgeTo)))
	}
	return r
}

// edgeLabels renders g's edge labels, edge by edge.
func edgeLabels(g *core.IDGraph) []string {
	out := make([]string, g.NumEdges())
	for e := range out {
		out[e] = g.Action(e)
	}
	return out
}

// sameGraph asserts an explored graph agrees with the reference on every
// published field.
func sameGraph(t *testing.T, want *refGraph, got *core.IDGraph) {
	t.Helper()
	if !slices.Equal(want.keys, got.Keys) {
		t.Fatal("Keys differ")
	}
	if !slices.Equal(want.depthOf, got.DepthOf) {
		t.Fatal("DepthOf differs")
	}
	if !slices.Equal(want.inits, got.Inits) {
		t.Fatal("Inits differ")
	}
	if !slices.Equal(want.edgeStart, got.EdgeStart) {
		t.Fatal("EdgeStart differs")
	}
	if !slices.Equal(want.edgeAction, edgeLabels(got)) {
		t.Fatal("EdgeAction differs")
	}
	if !slices.Equal(want.edgeTo, got.EdgeTo) {
		t.Fatal("EdgeTo differs")
	}
	// Layers are the id runs of equal depth, in id order.
	next := uint32(0)
	for d := 0; d < got.NumLayers(); d++ {
		for _, u := range got.Layer(d) {
			if u != next || want.depthOf[u] != int32(d) {
				t.Fatalf("layer %d: node %d out of place", d, u)
			}
			next++
		}
	}
	if int(next) != len(want.keys) {
		t.Fatalf("layers cover %d of %d nodes", next, len(want.keys))
	}
	for u, x := range got.States {
		if want.keys[u] != x.Key() {
			t.Fatalf("node %d state key differs", u)
		}
	}
}

func workerCounts() []int {
	counts := []int{1, 4}
	if gm := runtime.GOMAXPROCS(0); gm != 1 && gm != 4 {
		counts = append(counts, gm)
	}
	return counts
}

// TestShardedLegacyGraphEquivalence: full explorations over the nine-model
// zoo are bit-identical to the reference at every worker count.
func TestShardedLegacyGraphEquivalence(t *testing.T) {
	for _, tc := range equivZoo() {
		t.Run(tc.name, func(t *testing.T) {
			ref := refExplore(tc.mk(), tc.depth, 0)
			if len(ref.keys) == 0 || ref.budgetHit {
				t.Fatal("empty or cut reference graph")
			}
			for _, w := range workerCounts() {
				g, err := core.ExploreIDCtx(nil, tc.mk(), tc.depth, 0, w)
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				sameGraph(t, ref, g)
			}
		})
	}
}

// TestShardedEquivalenceAtMemoSize: the message-passing models at the
// size where their id tables and model-wide Deliver and Receive memos
// actually hit (the coldbench sync_lowerbound, mobile_refute and
// async_nongraded models) explore bit-identically to the reference, which
// builds every successor through the raw successor function and interns it
// by canonical key, at 1, 2 and 8 workers.
func TestShardedEquivalenceAtMemoSize(t *testing.T) {
	sp := protocols.FloodSet{Rounds: 3}
	for _, tc := range []equivCase{
		{"SyncSt FloodSet(3) n=7 t=2", func() core.Model { return syncmp.NewSt(sp, 7, 2) }, 3},
		{"MobileS1 FloodSet(3) n=7", func() core.Model { return mobile.New(sp, 7) }, 3},
		{"Sper MPFlood(3) n=3", func() core.Model { return asyncmp.New(protocols.MPFlood{Phases: 3}, 3) }, 3},
		{"Ssync MPFlood(4) n=3", func() core.Model { return asyncmp.NewSynchronic(protocols.MPFlood{Phases: 4}, 3) }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := refExplore(tc.mk(), tc.depth, 0)
			for _, w := range []int{1, 2, 8} {
				g, err := core.ExploreIDCtx(nil, tc.mk(), tc.depth, 0, w)
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				sameGraph(t, ref, g)
			}
		})
	}
}

// TestShardedLegacyBudgetEquivalence: a node budget must cut the engine at
// the reference's point — same partial graph, and ErrNodeBudget — because
// the budget check sits in the deterministic merge, not in the cache.
func TestShardedLegacyBudgetEquivalence(t *testing.T) {
	for _, tc := range equivZoo() {
		t.Run(tc.name, func(t *testing.T) {
			budget := len(refExplore(tc.mk(), tc.depth, 0).keys) / 2
			if budget == 0 {
				t.Skip("graph too small to cut")
			}
			ref := refExplore(tc.mk(), tc.depth, budget)
			if !ref.budgetHit || len(ref.keys) != budget {
				t.Fatalf("reference cut at %d nodes (hit=%v), want %d", len(ref.keys), ref.budgetHit, budget)
			}
			for _, w := range workerCounts() {
				g, err := core.ExploreIDCtx(nil, tc.mk(), tc.depth, budget, w)
				if !errors.Is(err, core.ErrNodeBudget) {
					t.Fatalf("w=%d: %v, want ErrNodeBudget", w, err)
				}
				sameGraph(t, ref, g)
			}
		})
	}
}

// TestShardedResumeEquivalence interrupts explorations at every layer
// boundary (explore.layer chaos cancel), persists the checkpoint through
// the binary container, resumes on the same model and cache, and asserts
// the finished graph is bit-identical to the reference — the
// checkpoint/resume face of the equivalence property. The full zoo already
// pins graph equality; the resume machinery is model-independent, so one
// light and one heavy family keep this sub-test fast.
func TestShardedResumeEquivalence(t *testing.T) {
	zoo := equivZoo()
	for _, tc := range []equivCase{zoo[0], zoo[4]} {
		t.Run(tc.name, func(t *testing.T) {
			ref := refExplore(tc.mk(), tc.depth, 0)
			for cut := 0; cut < tc.depth; cut++ {
				for _, w := range workerCounts() {
					m := tc.mk()
					chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: uint64(cut + 1), Kind: chaos.KindCancel}))
					partial, perr := core.ExploreIDCtx(nil, m, tc.depth, 0, w)
					chaos.Disarm()
					if !errors.Is(perr, resilient.ErrPartial) {
						t.Fatalf("cut=%d w=%d: %v, want ErrPartial family", cut, w, perr)
					}
					if partial.ReachedDepth() > cut {
						t.Fatalf("cut=%d: partial graph reached depth %d past the cut", cut, partial.ReachedDepth())
					}
					ck, ok := resilient.CheckpointFrom(perr)
					if !ok {
						t.Fatalf("cut=%d w=%d: no checkpoint attached", cut, w)
					}
					sections, serr := ck.Sections()
					if serr != nil {
						t.Fatal(serr)
					}
					var buf bytes.Buffer
					if err := resilient.WriteSections(&buf, sections); err != nil {
						t.Fatal(err)
					}
					back, err := resilient.ReadSections(&buf)
					if err != nil {
						t.Fatal(err)
					}
					ctx := resilient.Background()
					ctx.SetResume(back)
					resumed, rerr := core.ExploreIDCtx(ctx, m, tc.depth, 0, w)
					if rerr != nil {
						t.Fatalf("cut=%d w=%d: resume failed: %v", cut, w, rerr)
					}
					sameGraph(t, ref, resumed)
				}
			}
		})
	}
}
