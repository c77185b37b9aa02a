package valence

import (
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

// fieldPlanes are the decided-bit planes of a graph: bit u of d0 (d1) is
// set when some process that is non-failed at node u's state has decided 0
// (1) there — DecidedValues(state)&0b11 transposed into two node-indexed
// bit-planes. They seed the field sweep's transfer function.
type fieldPlanes struct {
	d0, d1 []uint64
}

// fieldPlanesOf returns (building and caching on first use) g's decided
// planes.
func fieldPlanesOf(g *core.IDGraph) *fieldPlanes {
	return g.Aux(fieldPlanesKey{}, func() any {
		rec := obs.Active()
		defer obs.Span(rec, "field.planes.time")()
		if tr := obs.Trace(); tr != nil {
			defer tr.End(tr.Begin("field.planes", 0))
		}
		words := (g.Len() + 63) / 64
		fp := &fieldPlanes{d0: make([]uint64, words), d1: make([]uint64, words)}
		for u, x := range g.States {
			dv := core.DecidedValues(x)
			bit := uint64(1) << (uint(u) & 63)
			if dv&1 != 0 {
				fp.d0[u>>6] |= bit
			}
			if dv&2 != 0 {
				fp.d1[u>>6] |= bit
			}
		}
		if rec != nil {
			rec.Add("field.planes.builds", 1)
		}
		return fp
	}).(*fieldPlanes)
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
	// anyDec bit u: some process — failed or not — has decided at node u.
	// checkWriteOnce can only fire on an edge whose source has a decided
	// process, so the edge pass skips sources without this bit.
	anyDec []uint64
	// woBad bit e (edge-indexed): checkWriteOnce fires on CSR edge e.
	woBad []uint64
	// rootInputs[i] is inputMask of g.Inits[i]'s state.
	rootInputs []uint64
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
			anyDec:     make([]uint64, words),
			woBad:      make([]uint64, (g.NumEdges()+63)/64),
			rootInputs: make([]uint64, len(g.Inits)),
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
			if anyDecided {
				cp.anyDec[u>>6] |= bit
			}
		}
		for u := 0; u < g.Len(); u++ {
			if !cp.bit(cp.anyDec, uint32(u)) {
				continue // no decided process: no edge out of u can fire
			}
			lo, hi := g.EdgeStart[u], g.EdgeStart[u+1]
			for e := lo; e < hi; e++ {
				if checkWriteOnce(g.States[u], g.States[g.EdgeTo[e]]) != nil {
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
