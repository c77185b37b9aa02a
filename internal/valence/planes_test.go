package valence_test

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/resilient"
	"repro/internal/valence"
)

// scalarMasks is the field's reference engine: the original one-byte-per-
// node reverse sweep from seed's bits. Same transfer function, same layer
// order, same fixpoint fallback as the bit-plane field; no planes, no
// words, no caching.
func scalarMasks(g *core.IDGraph, seed func(core.State) uint8) []uint8 {
	masks := make([]uint8, g.Len())
	node := func(u uint32) uint8 {
		m := seed(g.States[u]) & (valence.V0 | valence.V1)
		lo, hi := g.EdgeStart[u], g.EdgeStart[u+1]
		for e := lo; e < hi && m != valence.V0|valence.V1; e++ {
			m |= masks[g.EdgeTo[e]]
		}
		return m
	}
	if g.Graded() {
		for d := g.NumLayers() - 1; d >= 0; d-- {
			for _, u := range g.Layer(d) {
				masks[u] = node(u)
			}
		}
		return masks
	}
	for changed := true; changed; {
		changed = false
		for u := g.Len() - 1; u >= 0; u-- {
			if m := node(uint32(u)) | masks[u]; m != masks[u] {
				masks[u] = m
				changed = true
			}
		}
	}
	return masks
}

// decidedSeed is NewFieldCtx's seed: the values decided by processes
// non-failed at the state.
func decidedSeed(x core.State) uint8 { return uint8(core.DecidedValues(x) & 0b11) }

// byProcessSeed is a covering seed in the shape of decision's
// CoveringByProcess over every decided simplex: a state whose non-failed
// processes have all decided is seeded V0 when the last process is
// non-failed and decided 0, and V1 otherwise; other states get no bits.
func byProcessSeed(x core.State) uint8 {
	last := x.N() - 1
	for i := 0; i <= last; i++ {
		if _, ok := x.Decided(i); !ok && !x.FailedAt(i) {
			return 0
		}
	}
	if v, _ := x.Decided(last); v == 0 && !x.FailedAt(last) {
		return valence.V0
	}
	return valence.V1
}

// wmState is a node of the synthetic wide graded model: layer, index within
// the layer, and an optional decided value (-1 = undecided). Two dummy
// processes, no failures.
type wmState struct {
	layer, idx, decide int
}

func (s wmState) N() int      { return 2 }
func (s wmState) Key() string { return fmt.Sprintf("wm|%d|%d|%d", s.layer, s.idx, s.decide) }
func (s wmState) EnvKey() string {
	return strconv.Itoa(s.layer)
}
func (s wmState) Local(i int) string { return fmt.Sprintf("%d|%d|%d", i, s.idx, s.decide) }
func (s wmState) Decided(int) (int, bool) {
	if s.decide < 0 {
		return core.Undecided, false
	}
	return s.decide, true
}
func (s wmState) FailedAt(int) bool { return false }

// wideModel is a graded model with `width` nodes at every layer: node
// (d, i) steps to (d+1, i) and (d+1, (i+1) mod width), and the layer at
// `depth` decides idx mod 2. Its layers are wide enough to span several
// 64-node words, which is what the word-boundary tests need.
type wideModel struct{ width, depth int }

func (m wideModel) Name() string { return "test/wide" }

func (m wideModel) Inits() []core.State {
	out := make([]core.State, m.width)
	for i := range out {
		out[i] = wmState{layer: 0, idx: i, decide: -1}
	}
	return out
}

func (m wideModel) Successors(x core.State) []core.Succ {
	s := x.(wmState)
	next := s.layer + 1
	dec := func(idx int) int {
		if next >= m.depth {
			return idx % 2
		}
		return -1
	}
	i, j := s.idx, (s.idx+1)%m.width
	return []core.Succ{
		{Action: "a", State: wmState{layer: next, idx: i, decide: dec(i)}},
		{Action: "b", State: wmState{layer: next, idx: j, decide: dec(j)}},
	}
}

// chState is a node of the synthetic same-depth-chain model: chain index
// (decide < 0) or a decided leaf.
type chState struct {
	id, decide int
}

func (s chState) N() int             { return 2 }
func (s chState) Key() string        { return fmt.Sprintf("ch|%d|%d", s.id, s.decide) }
func (s chState) EnvKey() string     { return "" }
func (s chState) Local(i int) string { return fmt.Sprintf("%d|%d|%d", i, s.id, s.decide) }
func (s chState) Decided(int) (int, bool) {
	if s.decide < 0 {
		return core.Undecided, false
	}
	return s.decide, true
}
func (s chState) FailedAt(int) bool { return false }

// chainModel produces a non-graded graph: every chain node c_0..c_k is an
// initial state, c_i steps to c_(i-1) — a same-depth shortcut edge, since
// both ends sit in layer 0 — and c_0 steps to a leaf that decides 0. With
// k >= 64 the shortcut edges cross the 64-node word boundary, and the
// descending-id fixpoint sweep needs ~k passes because valence propagates
// toward increasing ids one step per pass.
type chainModel struct{ k int }

func (m chainModel) Name() string { return "test/chain" }

func (m chainModel) Inits() []core.State {
	out := make([]core.State, m.k+1)
	for i := range out {
		out[i] = chState{id: i, decide: -1}
	}
	return out
}

func (m chainModel) Successors(x core.State) []core.Succ {
	s := x.(chState)
	if s.id == 0 {
		return []core.Succ{{Action: "d", State: chState{id: -1, decide: 0}}}
	}
	return []core.Succ{{Action: "s", State: chState{id: s.id - 1, decide: -1}}}
}

// TestFieldShardWordAlignment sweeps a graph whose 200-node layers span
// several 64-node words and start mid-word, and requires bit-identity with
// the scalar reference engine. Every layer boundary cuts a plane word, so
// the span sweep's masked partial-word merge must keep the deeper layer's
// already-final bits while it writes the shallower layer's.
func TestFieldShardWordAlignment(t *testing.T) {
	g, err := core.ExploreID(wideModel{width: 200, depth: 3}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Graded() {
		t.Fatal("wide model graph should be graded")
	}
	lo, hi := g.LayerSpan(1)
	if hi-lo != 200 {
		t.Fatalf("LayerSpan(1) = [%d,%d), want a 200-node window", lo, hi)
	}
	if lo%64 == 0 {
		t.Fatalf("layer 1 starts at word-aligned id %d; the fixture needs a mid-word boundary", lo)
	}
	if !bytes.Equal(newField(t, g).Masks(), scalarMasks(g, decidedSeed)) {
		t.Fatal("bit-plane field differs from scalar reference")
	}
}

// TestFieldFixpointWordBoundary pins the non-graded fixpoint fallback at
// word boundaries: the chain model's same-depth shortcut edges cross the
// 64-node word boundary (c_64 -> c_63 reads plane word 1 while computing
// word 0, and the decided leaf's bit must then march back up across the
// boundary one pass at a time). Masks must be bit-identical to the scalar
// engine and to the known answer — every node 0-valent.
func TestFieldFixpointWordBoundary(t *testing.T) {
	const k = 100
	g, err := core.ExploreID(chainModel{k: k}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Graded() {
		t.Fatal("chain model graph should not be graded (same-depth shortcut edges)")
	}
	if g.Len() != k+2 {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), k+2)
	}
	f := newField(t, g)
	scalar := scalarMasks(g, decidedSeed)
	if !bytes.Equal(f.Masks(), scalar) {
		t.Fatal("fixpoint bit-plane field differs from scalar reference")
	}
	for u := 0; u < g.Len(); u++ {
		if got := f.Mask(uint32(u)); got != valence.V0 {
			t.Fatalf("node %d: mask %02b, want %02b (0-valent via the chain)", u, got, valence.V0)
		}
	}
}

// TestFieldMatchesScalarPlanes is the field's pinning property: across all
// nine model families, graded and fixpoint graphs, the decided seed
// (NewFieldCtx) and a covering seed (NewFieldFrom), and a
// checkpoint/resume cut, the bit-plane field is bit-for-bit identical to
// the scalar reference engine.
func TestFieldMatchesScalarPlanes(t *testing.T) {
	seeds := []struct {
		name  string
		seed  func(core.State) uint8
		sweep func(*resilient.Ctx, *core.IDGraph) (*valence.Field, error)
	}{
		{"decided", decidedSeed, valence.NewFieldCtx},
		{"covering", byProcessSeed, func(ctx *resilient.Ctx, g *core.IDGraph) (*valence.Field, error) {
			return valence.NewFieldFrom(ctx, g, byProcessSeed)
		}},
	}
	for _, n := range []int{2, 3} {
		for _, mc := range fieldModels(n, 1, 2) {
			depth := 2
			if mc.heavy && n >= 3 {
				depth = 1
			}
			t.Run(fmt.Sprintf("%s-n%d-d%d", mc.name, n, depth), func(t *testing.T) {
				g, err := core.ExploreID(mc.m, depth, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, sc := range seeds {
					scalar := scalarMasks(g, sc.seed)
					f, err := sc.sweep(nil, g)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(f.Masks(), scalar) {
						t.Fatalf("%s seed: bit-plane field differs from scalar (graded=%v)", sc.name, g.Graded())
					}
					if !g.Graded() {
						continue // the fixpoint fallback is not checkpointed
					}
					// Cut the sweep mid-way, resume from the persisted
					// checkpoint, and require the same bits.
					plan := chaos.NewPlan().Set("field.layer",
						chaos.Rule{Hit: uint64(1 + g.NumLayers()/2), Kind: chaos.KindCancel})
					chaos.Arm(plan)
					_, perr := sc.sweep(nil, g)
					chaos.Disarm()
					if !errors.Is(perr, resilient.ErrPartial) {
						t.Fatalf("%s seed: cut err = %v, want ErrPartial family", sc.name, perr)
					}
					got, rerr := sc.sweep(resumeCtx(t, perr), g)
					if rerr != nil {
						t.Fatal(rerr)
					}
					if !bytes.Equal(got.Masks(), scalar) {
						t.Fatalf("%s seed: resumed bit-plane field differs from scalar", sc.name)
					}
				}
			})
		}
	}
}
