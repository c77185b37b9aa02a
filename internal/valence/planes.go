package valence

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file derives the immutable per-graph bit tables the valence hot
// loops run on. Both tables are cached on the IDGraph through Aux, so the
// per-node and per-edge State interface calls they fold away are paid once
// per graph, not once per sweep: every later field sweep and graph
// certification over the same graph is pure integer work on the CSR
// arrays.

// fieldPlanesKey and certPlanesKey key the cached tables in IDGraph.Aux.
type (
	fieldPlanesKey struct{}
	certPlanesKey  struct{}
)

// fieldPlanes are the seed planes of a field sweep: bit u of d0 (d1) is
// set when node u's state carries seed bit V0 (V1). For the valence field
// the seed is DecidedValues(state)&0b11 — some process non-failed at u has
// decided 0 (1) there — transposed into two node-indexed bit-planes; a
// seeded field (NewFieldFrom) brings its own seed. They seed the field
// sweep's transfer function.
type fieldPlanes struct {
	d0, d1 []uint64
}

// fieldPlanesOf returns (building and caching on first use) g's decided
// planes.
func fieldPlanesOf(g *core.IDGraph) *fieldPlanes {
	return g.Aux(fieldPlanesKey{}, func() any {
		return seedPlanes(g, func(x core.State) uint8 { return uint8(core.DecidedValues(x) & 0b11) })
	}).(*fieldPlanes)
}

// seedPlanes transposes seed(state)'s V0 and V1 bits over g's nodes into
// two bit-planes: one seed call per node.
func seedPlanes(g *core.IDGraph, seed func(core.State) uint8) *fieldPlanes {
	rec := obs.Active()
	defer obs.Span(rec, "field.planes.time")()
	if tr := obs.Trace(); tr != nil {
		defer tr.End(tr.Begin("field.planes", 0))
	}
	words := (g.Len() + 63) / 64
	fp := &fieldPlanes{d0: make([]uint64, words), d1: make([]uint64, words)}
	for u, x := range g.States {
		m := seed(x)
		bit := uint64(1) << (uint(u) & 63)
		if m&V0 != 0 {
			fp.d0[u>>6] |= bit
		}
		if m&V1 != 0 {
			fp.d1[u>>6] |= bit
		}
	}
	if rec != nil {
		rec.Add("field.planes.builds", 1)
	}
	return fp
}

// id derives a seeded field's checkpoint id from its seed planes: an FNV
// hash of both planes, never 0 (0 is the decided seed's id, which keeps
// NewFieldCtx checkpoints on the bare graph fingerprint).
func (fp *fieldPlanes) id() uint64 {
	h := fnv.New64a()
	// Writes to a hash.Hash never fail.
	_ = binary.Write(h, binary.LittleEndian, fp.d0)
	_ = binary.Write(h, binary.LittleEndian, fp.d1)
	return h.Sum64() | 1
}

// certPlanes are the certifier's precomputed check tables: everything
// checkState, checkWriteOnce, and AllDecided can decide about a node or an
// edge independently of which root the DFS arrived from. The DFS consults
// these with one or two word operations per visit and re-runs the original
// interface-call check only on the rare dirty node/edge, to build the
// exact witness.
type certPlanes struct {
	// dvals[u] is DecidedValues of node u's state: the set of values in
	// [0,63) decided by processes non-failed there. A state fails the
	// validity check under root-input mask `inputs` exactly when
	// dvals[u] &^ inputs != 0.
	dvals []uint64
	// agreeBad bit u: checkState's agreement scan fires on node u's state
	// (two processes, scanned in index order with its exact seen-guard,
	// non-failed and decided on different values).
	agreeBad []uint64
	// allDec bit u: AllDecided holds at node u's state (the decision
	// requirement at the bound layer).
	allDec []uint64
	// woBad bit e (edge-indexed): checkWriteOnce fires on CSR edge e.
	woBad []uint64
	// rootInputs[i] is inputMask of g.Inits[i]'s state.
	rootInputs []uint64
	// states is g.States, for the exact checks on dirty nodes.
	states []core.State
}

func (cp *certPlanes) bit(plane []uint64, i uint32) bool {
	return plane[i>>6]&(1<<(i&63)) != 0
}

// certPlanesOf returns (building and caching on first use) g's certifier
// check tables. The build is one pass over nodes and one over edges — the
// same interface-call work a single certification used to spend per visit,
// spent once per graph.
func certPlanesOf(g *core.IDGraph) *certPlanes {
	return g.Aux(certPlanesKey{}, func() any {
		rec := obs.Active()
		defer obs.Span(rec, "certify.planes.time")()
		if tr := obs.Trace(); tr != nil {
			defer tr.End(tr.Begin("certify.planes", 0))
		}
		words := (g.Len() + 63) / 64
		cp := &certPlanes{
			dvals:      make([]uint64, g.Len()),
			agreeBad:   make([]uint64, words),
			allDec:     make([]uint64, words),
			woBad:      make([]uint64, (g.NumEdges()+63)/64),
			rootInputs: make([]uint64, len(g.Inits)),
			states:     g.States,
		}
		for u, x := range g.States {
			bit := uint64(1) << (uint(u) & 63)
			// One fused process scan per node, replicating checkState's
			// agreement sequence (including its seen >= 0 guard, which a
			// negative decided value resets) exactly.
			seen, agreeDirty, anyDecided, allDecided := -1, false, false, true
			var dv uint64
			for i := 0; i < x.N(); i++ {
				v, ok := x.Decided(i)
				if ok {
					anyDecided = true
				}
				if x.FailedAt(i) {
					continue
				}
				if !ok {
					allDecided = false
					continue
				}
				if v >= 0 && v < 63 {
					dv |= 1 << uint(v)
				}
				if seen >= 0 && v != seen {
					agreeDirty = true
				}
				seen = v
			}
			cp.dvals[u] = dv
			if agreeDirty {
				cp.agreeBad[u>>6] |= bit
			}
			if allDecided {
				cp.allDec[u>>6] |= bit
			}
			if !anyDecided {
				continue // checkWriteOnce can fire on no edge out of u
			}
			for e := g.EdgeStart[u]; e < g.EdgeStart[u+1]; e++ {
				if checkWriteOnce(x, g.States[g.EdgeTo[e]]) != nil {
					cp.woBad[e>>6] |= 1 << (e & 63)
				}
			}
		}
		for i, r := range g.Inits {
			cp.rootInputs[i] = inputMask(g.States[r])
		}
		if rec != nil {
			rec.Add("certify.planes.builds", 1)
		}
		return cp
	}).(*certPlanes)
}
