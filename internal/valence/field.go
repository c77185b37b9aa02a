// Package valence implements the paper's valence machinery: horizon-bounded
// valence of states (Section 3), connectivity analysis of layer sets
// (Lemmas 3.3–3.5, 5.1, 5.3), the bivalent-chain constructions behind
// Theorem 4.2 and Lemmas 6.1/7.1, and the consensus certifier that either
// certifies a protocol over a layered submodel or produces a concrete
// witness run (agreement violation, validity violation, undecided run, or
// broken write-once decision).
//
// # Horizon-bounded valence
//
// The paper defines x to be v-valent if some execution extending x has a
// nonfaulty process deciding v. For a protocol that decides within B layers
// of the initial state in every run, all decision events occur within the
// first B layers, so the valence of a state at depth d is determined by its
// extensions of length B-d. One Field over the graph explored to B holds
// exactly this bounded valence for every node, and every valence question —
// a state's valence, a layer report, a bivalent chain, a width profile, the
// adversary's next move — is read off it. For impossibility arguments the
// bounded notion is the right one even without a proof of termination: a
// state with both decisions reachable in bounded futures is bivalent
// outright, and a bivalent state reached at the claimed decision bound is a
// witness that decision has not occurred (Lemmas 3.1/3.2).
package valence

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilient"
)

// V0 and V1 are the bits of a valence mask.
const (
	V0 uint8 = 1 << 0 // 0-valent
	V1 uint8 = 1 << 1 // 1-valent
)

// Field is the valence engine: the valence mask of every node of a
// materialized IDGraph, computed bottom-up in O(V+E) by one reverse-layer
// dynamic-programming sweep —
//
//	mask[u] = decidedBits(u) | OR over CSR out-edges of children masks
//
// — and stored as two bit-planes: bit u of plane0 (plane1) is set when node
// u is 0-valent (1-valent), 64 nodes per uint64 word. No maps, no
// recursion, no per-node bytes. For a graph explored to depth B, Mask(u)
// is node u's valence within horizon B-depth(u): the residual exploration
// depth is exactly the valence horizon at u, so one field answers every
// per-layer valence question without re-walking overlapping futures. To ask
// at horizon h about a state at depth d, explore to d+h. The masks are
// pinned to the recursive per-state test reference in oracle_ref_test.go.
//
// The bit-plane layout is what makes the sweep word-parallel: a layer is a
// contiguous id window (core.LayerSpan; BFS numbers each layer
// consecutively, and resume rejects checkpoints that would not), so the
// sweep computes 64 nodes' bits into
// two register accumulators and stores whole plane words — interior words
// with a plain store, the partial words where a layer boundary cuts a word
// with a masked merge that preserves the deeper layer's already-final bits.
// Decided bits come from the per-graph cached decided planes
// (fieldPlanesOf), so steady-state sweeps perform no State interface calls
// at all; runs of consecutive child ids (BFS numbers fresh children
// consecutively) are folded with word-wide ORs over the planes instead of
// per-edge bit probes.
//
// The sweep is the same for any seed: NewFieldFrom runs it from seed
// planes of the caller's choosing, which is how Section 7's generalized
// valence under a covering (O₀, O₁) is computed (decision.FieldValences),
// and with it Lemma 7.1's chain as the field's BivalentChain.
//
// On graded graphs (every edge goes depth d -> d+1) a node's mask depends
// only on the already-finished deeper layer, so one reverse pass over the
// layers is exact. Graphs that are not graded — the asynchronous families
// can produce same-depth shortcut edges at small n — fall back to serial
// reverse sweeps iterated to fixpoint (masks grow monotonically under OR,
// so the iteration converges); there the mask means "valence within the
// explored graph": the OR of seed bits over every reachable recorded node. That is the
// horizon-bounded valence whenever no same-depth shortcut lets a node
// reach a decision more than B-depth layers ahead; otherwise the field's
// mask is a superset (measured at n=3: equal for protocol bounds up to 3
// explored to depth 4 in every model, a superset on 12–132 nodes of the
// asyncmp, asyncmp-sync and snapshot graphs at bound 4, depth 4).
type Field struct {
	g *core.IDGraph
	// fp is the seed planes: the graph's cached decided-bit planes for
	// NewFieldCtx, the caller's seed for NewFieldFrom (immutable).
	fp *fieldPlanes
	// id keys checkpoints to the seed: 0 for the decided seed, the seed
	// planes' hash for NewFieldFrom.
	id uint64
	// plane0/plane1 hold the field: bit u set = V0 (V1) in node u's mask.
	plane0, plane1 []uint64
}

// runMin is the shortest run of consecutive child ids folded with word-wide
// ORs over the planes instead of per-edge bit probes.
const runMin = 16

// NewFieldCtx computes the valence field of g under a cancellation context
// (nil never cancels), polled with the chaos field.layer fault point once
// per layer. An interruption returns the partial field alongside an error
// carrying a resilient.Checkpointer with the masks computed so far and
// the next unfinished layer; resuming with that snapshot
// (resilient.TagField, validated against a fingerprint of the graph)
// yields a field bit-identical to an uninterrupted sweep's.
//
// Non-graded graphs fall back to serial fixpoint iteration, which polls
// the context once per pass but is not checkpointed (the fallback exists
// for small or shortcut-edged graphs).
func NewFieldCtx(ctx *resilient.Ctx, g *core.IDGraph) (*Field, error) {
	f := &Field{}
	err := f.compute(ctx, g, nil)
	return f, err
}

// NewFieldFrom is NewFieldCtx with the decided bits replaced by seed: a
// node's mask is the OR of seed(state)&(V0|V1) over the states reachable
// from it within its horizon. It runs the same sweep — graded span sweep
// or fixpoint, the field.layer fault point, TagField checkpoints — but its
// checkpoints carry an id derived from the seed planes, so a seeded sweep
// and a NewFieldCtx sweep (or two sweeps with different seeds) over the
// same graph never resume each other's cuts.
func NewFieldFrom(ctx *resilient.Ctx, g *core.IDGraph, seed func(core.State) uint8) (*Field, error) {
	f := &Field{}
	err := f.compute(ctx, g, seed)
	return f, err
}

// compute runs the sweep into f from seed's planes, or from the graph's
// cached decided planes when seed is nil.
func (f *Field) compute(ctx *resilient.Ctx, g *core.IDGraph, seed func(core.State) uint8) error {
	rec := obs.Active()
	tr := obs.Trace()
	var root obs.TraceSpan
	if tr != nil {
		root = tr.Begin("field", 0)
		defer tr.End(root)
	}
	words := (g.Len() + 63) / 64
	rec.Add("field.sweeps", 1)
	rec.Add("field.nodes", int64(g.Len()))
	rec.Add("field.words", int64(2*words))
	f.g = g
	if seed == nil {
		f.fp = fieldPlanesOf(g)
	} else {
		f.fp = seedPlanes(g, seed)
		f.id = f.fp.id()
	}
	f.plane0, f.plane1 = make([]uint64, words), make([]uint64, words)
	if g.Graded() {
		start := g.NumLayers() - 1
		if data := ctx.PeekResume(resilient.TagField); data != nil {
			ck, err := DecodeFieldCheckpoint(data)
			if err != nil {
				return err
			}
			if ck.Matches(g, f.id) {
				ctx.TakeResume(resilient.TagField)
				f.loadMasks(ck.Masks)
				start = ck.NextLayer
				if rec != nil {
					rec.Add("field.resumes", 1)
					rec.Event("field.resume",
						obs.F{Key: "next_layer", Value: start},
						obs.F{Key: "nodes", Value: g.Len()})
				}
			}
		}
		for d := start; d >= 0; d-- {
			if err := chaos.Check(ctx, "field.layer"); err != nil {
				return f.interrupted(rec, d, err)
			}
			var lsp obs.TraceSpan
			if tr != nil {
				lsp = tr.Begin("field.layer", root.ID)
			}
			var t0 time.Time
			if rec != nil {
				t0 = time.Now() //lint:nondet feeds layer-timing instrumentation only
			}
			lo, hi := g.LayerSpan(d)
			f.sweepSpan(lo, hi)
			width := int(hi - lo)
			if tr != nil {
				tr.End(lsp)
			}
			if rec != nil {
				rec.Record("field.layer.width", int64(width))
				rec.Event("field.layer",
					obs.F{Key: "depth", Value: d},
					obs.F{Key: "width", Value: width},
					obs.F{Key: "ns", Value: time.Since(t0).Nanoseconds()})
			}
		}
		return nil
	}
	iters := 0
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("valence: field fixpoint interrupted after %d iterations: %w", iters, err)
		}
		iters++
		changed := false
		for u := g.Len() - 1; u >= 0; u-- {
			wi, sh := u>>6, uint(u)&63
			old0, old1 := f.plane0[wi]>>sh&1, f.plane1[wi]>>sh&1
			m0, m1 := f.nodeBits(uint32(u))
			if m0&^old0 != 0 || m1&^old1 != 0 {
				f.plane0[wi] |= m0 << sh
				f.plane1[wi] |= m1 << sh
				changed = true
			}
		}
		if !changed {
			if rec != nil {
				rec.Add("field.fixpoint.iterations", int64(iters))
				rec.Event("field.fixpoint",
					obs.F{Key: "nodes", Value: g.Len()},
					obs.F{Key: "iterations", Value: iters})
			}
			return nil
		}
	}
}

// loadMasks restores the planes from a checkpoint's byte-per-node view.
func (f *Field) loadMasks(masks []uint8) {
	clear(f.plane0)
	clear(f.plane1)
	for u, m := range masks {
		bit := uint64(1) << (uint(u) & 63)
		if m&V0 != 0 {
			f.plane0[u>>6] |= bit
		}
		if m&V1 != 0 {
			f.plane1[u>>6] |= bit
		}
	}
}

// interrupted finalizes a sweep cut: layers above nextLayer are complete in
// the planes, layer nextLayer may be partially written, and the checkpoint
// records exactly that (in the stable byte-per-node encoding), attached to
// the returned error.
func (f *Field) interrupted(rec *obs.Metrics, nextLayer int, cause error) error {
	if rec != nil {
		rec.Add("field.interrupts", 1)
		rec.Event("field.interrupted",
			obs.F{Key: "next_layer", Value: nextLayer},
			obs.F{Key: "cause", Value: cause.Error()})
	}
	ck := &FieldCheckpoint{
		Fingerprint: graphFingerprint(f.g) ^ f.id,
		NextLayer:   nextLayer,
		Masks:       f.Masks(),
	}
	err := fmt.Errorf("valence: field sweep interrupted at layer %d: %w", nextLayer, cause)
	return resilient.WithCheckpoint(err, ck)
}

// sweepSpan computes the plane bits of the node-id window [a, b) — same-
// layer nodes whose children's bits are final. It accumulates each word's
// 64 masks in two registers and stores whole plane words; at the window's
// edges, where a word is shared with a neighboring layer, it merges under
// a mask that preserves the deeper layer's already-final bits (the
// shallower side's stale bits are overwritten when that layer is swept).
//
//lint:hotpath
func (f *Field) sweepSpan(a, b uint32) {
	g := f.g
	d0, d1 := f.fp.d0, f.fp.d1
	p0, p1 := f.plane0, f.plane1
	es, et := g.EdgeStart, g.EdgeTo
	for a < b {
		wi := a >> 6
		base := wi << 6
		we := base + 64
		if we > b {
			we = b
		}
		start := a
		var acc0, acc1 uint64
		for ; a < we; a++ {
			sh := a & 63
			m0 := d0[wi] >> sh & 1
			m1 := d1[wi] >> sh & 1
			for e, ehi := es[a], es[a+1]; e < ehi && m0&m1 == 0; {
				// BFS numbers a node's fresh children consecutively, so
				// child windows are mostly runs of consecutive ids: fold a
				// long run with word-wide ORs over the contiguous plane
				// range instead of probing bit by bit.
				r := e + 1
				for r < ehi && et[r] == et[r-1]+1 {
					r++
				}
				if r-e >= runMin {
					o0, o1 := orRange(p0, p1, et[e], et[e]+(r-e))
					m0 |= o0
					m1 |= o1
				} else {
					for ; e < r; e++ {
						v := et[e]
						m0 |= p0[v>>6] >> (v & 63) & 1
						m1 |= p1[v>>6] >> (v & 63) & 1
					}
					continue
				}
				e = r
			}
			acc0 |= m0 << sh
			acc1 |= m1 << sh
		}
		if start == base && we == base+64 {
			p0[wi] = acc0
			p1[wi] = acc1
			continue
		}
		mask := (uint64(1)<<(we-start) - 1) << (start & 63)
		p0[wi] = p0[wi]&^mask | acc0
		p1[wi] = p1[wi]&^mask | acc1
	}
}

// orRange ORs the plane bits of the node-id range [lo, hi) and returns the
// two results normalized to 0/1.
func orRange(p0, p1 []uint64, lo, hi uint32) (uint64, uint64) {
	wl, wh := lo>>6, (hi-1)>>6
	var o0, o1 uint64
	if wl == wh {
		var mask uint64
		if hi-lo == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1)<<(hi-lo) - 1) << (lo & 63)
		}
		o0, o1 = p0[wl]&mask, p1[wl]&mask
	} else {
		o0, o1 = p0[wl]>>(lo&63), p1[wl]>>(lo&63)
		for w := wl + 1; w < wh; w++ {
			o0 |= p0[w]
			o1 |= p1[w]
		}
		tail := hi - wh<<6
		var mask uint64
		if tail == 64 {
			mask = ^uint64(0)
		} else {
			mask = uint64(1)<<tail - 1
		}
		o0 |= p0[wh] & mask
		o1 |= p1[wh] & mask
	}
	if o0 != 0 {
		o0 = 1
	}
	if o1 != 0 {
		o1 = 1
	}
	return o0, o1
}

// nodeBits is the per-node transfer function on planes: seed bits OR all
// recorded children bits, early-exiting once both are set. Used by the
// fixpoint fallback; the span sweep inlines the same computation.
//
//lint:hotpath
func (f *Field) nodeBits(u uint32) (m0, m1 uint64) {
	g := f.g
	wi, sh := u>>6, u&63
	m0 = f.fp.d0[wi] >> sh & 1
	m1 = f.fp.d1[wi] >> sh & 1
	lo, hi := g.EdgeStart[u], g.EdgeStart[u+1]
	for e := lo; e < hi && m0&m1 == 0; e++ {
		v := g.EdgeTo[e]
		m0 |= f.plane0[v>>6] >> (v & 63) & 1
		m1 |= f.plane1[v>>6] >> (v & 63) & 1
	}
	return m0, m1
}

// Graph returns the underlying graph.
func (f *Field) Graph() *core.IDGraph { return f.g }

// Len returns the number of nodes.
func (f *Field) Len() int { return f.g.Len() }

// Mask returns node u's valence mask.
func (f *Field) Mask(u uint32) uint8 {
	wi, sh := u>>6, u&63
	return uint8(f.plane0[wi]>>sh&1)*V0 | uint8(f.plane1[wi]>>sh&1)*V1
}

// Masks materializes the byte-per-node view of the field — the shape the
// RSCK checkpoint sections and differential tests consume. The slice is
// fresh; mutating it does not affect the field.
func (f *Field) Masks() []uint8 {
	out := make([]uint8, f.g.Len())
	for u := range out {
		out[u] = f.Mask(uint32(u))
	}
	return out
}

// Bivalent reports whether node u is bivalent within its residual horizon.
func (f *Field) Bivalent(u uint32) bool {
	wi, sh := u>>6, u&63
	return ((f.plane0[wi]&f.plane1[wi])>>sh)&1 != 0
}

// MaskOf returns the mask of the node holding state x, if x is in the
// graph.
func (f *Field) MaskOf(x core.State) (uint8, bool) {
	u, ok := f.g.NodeByKey(x.Key())
	if !ok {
		return 0, false
	}
	return f.Mask(u), true
}
