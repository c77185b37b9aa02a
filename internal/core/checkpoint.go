package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/resilient"
)

// ExploreCheckpoint is the resumable snapshot of an exploration interrupted
// at a layer boundary: the CSR prefix over the completed layers, the
// canonical keys and depths of every discovered node (including the
// untouched frontier layer), and the arguments the run was started with.
//
// States themselves are not serialized — State is an interface and keys are
// canonical — so restore re-materializes them by replaying each node's
// discovery edge through the model's successor cache, parent before child.
// Only discovery parents are re-enumerated; the frontier layer, which is
// where the exploration cost lives, is restored without enumeration.
//
// The snapshot is only taken at layer boundaries (cancellation, deadline,
// and the chaos explore.layer/explore.warm fault points); mid-layer budget
// exhaustion is a final verdict, not a resumable cut.
type ExploreCheckpoint struct {
	// Model, Depth, MaxNodes echo the interrupted call's arguments; a resume
	// must match all three and the model's initial states (see Matches) or
	// the snapshot is ignored.
	Model    string
	Depth    int
	MaxNodes int
	// NextDepth is the first unexpanded layer: layers 0..NextDepth-1 have
	// their edges in the snapshot, layer NextDepth is the saved frontier.
	NextDepth int

	// g is the live partial graph when the snapshot was built by an
	// interruption in this process (the Sections side).
	g *IDGraph

	// Decoded payload when the snapshot was read back from a file (the
	// Resume side).
	keys      []string
	depthOf   []int32
	inits     []uint32
	edgeStart []uint32
	edgeTo    []uint32
	actions   []string
}

// Matches reports whether the snapshot belongs to this (model, depth,
// maxNodes) call: the name and arguments agree, and so do the root keys,
// because one model name covers runs from different initial states
// (WithInits). Engines check it before consuming a resume section so a
// snapshot for a different run is left untouched.
func (ck *ExploreCheckpoint) Matches(m Model, depth, maxNodes int) bool {
	if ck.Model != m.Name() || ck.Depth != depth || ck.MaxNodes != maxNodes {
		return false
	}
	keys, inits := ck.keys, ck.inits
	if ck.g != nil {
		keys, inits = ck.g.Keys, ck.g.Inits
	}
	// Exploration seeds the roots from m's initial states in order,
	// duplicates dropped.
	roots := make(map[string]bool, len(inits))
	for _, x := range m.Inits() {
		if k := x.Key(); !roots[k] {
			if len(roots) == len(inits) || keys[inits[len(roots)]] != k {
				return false
			}
			roots[k] = true
		}
	}
	return len(roots) == len(inits)
}

// Sections encodes the snapshot as the resilient.TagExplore checkpoint
// section. EdgeStart is written un-padded — exactly one entry past the last
// expanded node — so restore can keep appending where the cut happened.
func (ck *ExploreCheckpoint) Sections() ([]resilient.Section, error) {
	g := ck.g
	if g == nil {
		return nil, fmt.Errorf("core: explore checkpoint has no graph")
	}
	expanded := 0
	for _, d := range g.DepthOf {
		if int(d) < ck.NextDepth {
			expanded++
		}
	}
	if expanded >= len(g.EdgeStart) || g.EdgeStart[expanded] != uint32(len(g.EdgeTo)) {
		return nil, fmt.Errorf("core: explore checkpoint cut is not a layer boundary (expanded=%d)", expanded)
	}
	enc := resilient.NewEnc(64 + 24*len(g.Keys) + 8*len(g.EdgeTo))
	enc.Str(ck.Model)
	enc.Int(ck.Depth)
	enc.Int(ck.MaxNodes)
	enc.Int(ck.NextDepth)
	enc.Strs(g.Keys)
	enc.I32s(g.DepthOf)
	enc.U32s(g.Inits)
	enc.U32s(g.EdgeStart[:expanded+1])
	enc.U32s(g.EdgeTo)
	// Actions repeat heavily across edges; store a first-occurrence string
	// table plus per-edge indices.
	table := make([]string, 0, 16)
	index := make(map[string]uint32, 16)
	actIDs := make([]uint32, len(g.EdgeAction))
	for i, a := range g.EdgeAction {
		id, ok := index[a]
		if !ok {
			id = uint32(len(table))
			index[a] = id
			table = append(table, a)
		}
		actIDs[i] = id
	}
	enc.Strs(table)
	enc.U32s(actIDs)
	return []resilient.Section{{Tag: resilient.TagExplore, Data: enc.Bytes()}}, nil
}

// DecodeExploreCheckpoint parses a resilient.TagExplore section payload.
func DecodeExploreCheckpoint(data []byte) (*ExploreCheckpoint, error) {
	d := resilient.NewDec(data)
	ck := &ExploreCheckpoint{
		Model:     d.Str(),
		Depth:     d.Int(),
		MaxNodes:  d.Int(),
		NextDepth: d.Int(),
		keys:      d.Strs(),
		depthOf:   d.I32s(),
		inits:     d.U32s(),
		edgeStart: d.U32s(),
		edgeTo:    d.U32s(),
	}
	table := d.Strs()
	actIDs := d.U32s()
	if !d.Done() {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: explore section: %v", resilient.ErrBadCheckpoint, err)
		}
		return nil, fmt.Errorf("%w: explore section has trailing bytes", resilient.ErrBadCheckpoint)
	}
	n := len(ck.keys)
	if len(ck.depthOf) != n || len(actIDs) != len(ck.edgeTo) || len(ck.edgeStart) == 0 {
		return nil, fmt.Errorf("%w: explore section arrays disagree", resilient.ErrBadCheckpoint)
	}
	if ck.edgeStart[len(ck.edgeStart)-1] != uint32(len(ck.edgeTo)) || len(ck.edgeStart) > n+1 {
		return nil, fmt.Errorf("%w: explore section edge framing is inconsistent", resilient.ErrBadCheckpoint)
	}
	for _, v := range ck.edgeTo {
		if int(v) >= n {
			return nil, fmt.Errorf("%w: explore section edge target out of range", resilient.ErrBadCheckpoint)
		}
	}
	for _, u := range ck.inits {
		if int(u) >= n {
			return nil, fmt.Errorf("%w: explore section init out of range", resilient.ErrBadCheckpoint)
		}
	}
	// BFS numbers nodes layer by layer, so depths start at 0 and never
	// decrease as the id grows: every layer is one contiguous id run, the
	// IDGraph invariant the sweeps read through LayerSpan.
	for u, d := range ck.depthOf {
		if u == 0 && d != 0 || u > 0 && d < ck.depthOf[u-1] || int(d) > ck.Depth {
			return nil, fmt.Errorf("%w: explore section depths are not BFS layers within depth %d", resilient.ErrBadCheckpoint, ck.Depth)
		}
	}
	ck.actions = make([]string, len(actIDs))
	for i, id := range actIDs {
		if int(id) >= len(table) {
			return nil, fmt.Errorf("%w: explore section action id out of range", resilient.ErrBadCheckpoint)
		}
		ck.actions[i] = table[id]
	}
	return ck, nil
}

// ResumeExploreID restores the snapshot against m and finishes the
// exploration from the saved layer boundary. Node numbering, edge order,
// depths, and any later budget or interruption point are bit-identical to
// an uninterrupted run: the CSR prefix comes straight from the snapshot and
// the continuation sees the identical frontier in the identical order.
func ResumeExploreID(ctx *resilient.Ctx, m Model, ck *ExploreCheckpoint, workers int) (*IDGraph, error) {
	c := CacheOf(m)
	rec := obs.Active()
	defer obs.Span(rec, "explore.time")()
	tr := obs.Trace()
	var root obs.TraceSpan
	if tr != nil {
		root = tr.Begin("explore", 0)
		defer tr.End(root)
	}
	n := len(ck.keys)
	g := &IDGraph{
		Depth:      ck.Depth,
		Cache:      c,
		Keys:       ck.keys,
		DepthOf:    ck.depthOf,
		Inits:      ck.inits,
		EdgeStart:  ck.edgeStart,
		EdgeTo:     ck.edgeTo,
		EdgeAction: ck.actions,
		States:     make([]State, n),
		ParentOf:   make([]int32, n),
		parentEdge: make([]int32, n),
		cacheIDs:   make([]uint32, n),
	}
	if len(g.EdgeStart) == 0 {
		g.EdgeStart = []uint32{0}
	}
	for u := range g.ParentOf {
		g.ParentOf[u], g.parentEdge[u] = -1, -1
	}
	for u, d := range g.DepthOf {
		for len(g.layers) <= int(d) {
			g.layers = append(g.layers, nil)
		}
		g.layers[d] = append(g.layers[d], uint32(u))
	}
	// Ids are assigned at discovery, so the first CSR edge into a non-init
	// node is its discovery edge; recover ParentOf/parentEdge in one pass.
	for u := 0; u+1 < len(g.EdgeStart); u++ {
		for e := g.EdgeStart[u]; e < g.EdgeStart[u+1]; e++ {
			v := g.EdgeTo[e]
			if g.ParentOf[v] < 0 && g.DepthOf[v] > 0 {
				g.ParentOf[v], g.parentEdge[v] = int32(u), int32(e)
			}
		}
	}
	// Re-materialize states: initial states from the model, every other node
	// by replaying its discovery edge through the successor cache. Canonical
	// keys cross-check each step, so a drifted model fails loudly instead of
	// resuming into a divergent graph.
	mismatch := func(what string) error {
		return fmt.Errorf("%w: checkpoint does not replay against model %s (%s)", resilient.ErrBadCheckpoint, m.Name(), what)
	}
	cacheToNode := newCIDTable(c.Len())
	ii := 0
	for _, x := range m.Inits() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: resume canceled while replaying initial states: %w", err)
		}
		cid := c.ID(x)
		if _, seen := cacheToNode.get(cid); seen {
			continue
		}
		if ii >= len(g.Inits) {
			return nil, mismatch("extra initial state")
		}
		u := g.Inits[ii]
		ii++
		if c.KeyOf(cid) != g.Keys[u] {
			return nil, mismatch("initial state key")
		}
		g.States[u] = x
		g.cacheIDs[u] = cid
		cacheToNode.set(cid, u)
	}
	if ii != len(g.Inits) {
		return nil, mismatch("missing initial state")
	}
	for u := 0; u < n; u++ {
		if u&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: resume canceled while re-materializing states (%d of %d): %w", u, n, err)
			}
		}
		if g.DepthOf[u] == 0 {
			continue
		}
		p := g.ParentOf[u]
		if p < 0 {
			return nil, mismatch("orphan node")
		}
		succs, sids := c.SuccessorsOf(g.cacheIDs[p], g.States[p])
		j := int(g.parentEdge[u]) - int(g.EdgeStart[p])
		if j < 0 || j >= len(succs) {
			return nil, mismatch("discovery edge index")
		}
		if c.KeyOf(sids[j]) != g.Keys[u] {
			return nil, mismatch("discovery edge key")
		}
		g.States[u] = succs[j].State
		g.cacheIDs[u] = sids[j]
		cacheToNode.set(sids[j], uint32(u))
	}
	frontier := g.Layer(ck.NextDepth)
	if rec != nil {
		rec.Add("explore.resumes", 1)
		rec.Event("explore.resume",
			obs.F{Key: "model", Value: ck.Model},
			obs.F{Key: "next_depth", Value: ck.NextDepth},
			obs.F{Key: "nodes", Value: n},
			obs.F{Key: "frontier", Value: len(frontier)},
			obs.F{Key: "workers", Value: workers})
	}
	return continueExplore(ctx, m, g, cacheToNode, frontier, ck.NextDepth, ck.MaxNodes, workers, rec, root.ID)
}
