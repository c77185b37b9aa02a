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
// Each discovery parent is enumerated once, since a node's discovery parent
// never decreases with its id, and its whole row is checked against the
// enumeration; the frontier layer, which is where the exploration cost
// lives, is restored without enumeration. Edge labels are written as a
// first-occurrence table of their strings and one index per edge, and a
// resume maps the strings back to the model's label ids.
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
	// Resume side): edge e is labeled labels[edgeLabel[e]].
	keys      []string
	depthOf   []int32
	inits     []uint32
	edgeStart []uint32
	edgeTo    []uint32
	labels    []string
	edgeLabel []uint32
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
	// Labels repeat heavily across edges; store a first-occurrence string
	// table plus per-edge indices.
	table := make([]string, 0, 16)
	index := make(map[uint32]uint32, 16)
	actIDs := make([]uint32, len(g.EdgeAction))
	for i, l := range g.EdgeAction {
		id, ok := index[l]
		if !ok {
			id = uint32(len(table))
			index[l] = id
			table = append(table, g.Label(l))
		}
		actIDs[i] = id
	}
	enc.Strs(table)
	enc.U32s(actIDs)
	return []resilient.Section{{Tag: resilient.TagExplore, Data: enc.Bytes()}}, nil
}

// DecodeExploreCheckpoint parses a resilient.TagExplore section payload
// and checks that it frames a layer-boundary cut (see validate).
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
	ck.labels = d.Strs()
	ck.edgeLabel = d.U32s()
	if !d.Done() {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: explore section: %v", resilient.ErrBadCheckpoint, err)
		}
		return nil, fmt.Errorf("%w: explore section has trailing bytes", resilient.ErrBadCheckpoint)
	}
	for _, id := range ck.edgeLabel {
		if int(id) >= len(ck.labels) {
			return nil, fmt.Errorf("%w: explore section action id out of range", resilient.ErrBadCheckpoint)
		}
	}
	if err := ck.validate(); err != nil {
		return nil, fmt.Errorf("%w: explore section %v", resilient.ErrBadCheckpoint, err)
	}
	return ck, nil
}

// validate checks that a decoded snapshot is what an interruption writes:
// BFS numbers nodes layer by layer, so depths start at 0 and grow by at
// most one from each id to the next (every layer is one contiguous id
// run, the IDGraph invariant the sweeps read through LayerSpan); the
// deepest layer is the unexpanded frontier NextDepth, below the bound;
// EdgeStart starts at 0, never decreases, and has one row per node above
// NextDepth; and every other node was discovered by an edge from the
// layer above, so its first in-edge comes from there.
func (ck *ExploreCheckpoint) validate() error {
	n := len(ck.keys)
	if len(ck.depthOf) != n || len(ck.edgeLabel) != len(ck.edgeTo) {
		return fmt.Errorf("arrays disagree")
	}
	for _, v := range ck.edgeTo {
		if int(v) >= n {
			return fmt.Errorf("edge target %d out of range", v)
		}
	}
	for _, u := range ck.inits {
		if int(u) >= n {
			return fmt.Errorf("init %d out of range", u)
		}
	}
	if ck.NextDepth >= ck.Depth {
		return fmt.Errorf("next depth %d is not below the depth bound %d", ck.NextDepth, ck.Depth)
	}
	above, prev := 0, int32(0)
	for u, d := range ck.depthOf {
		if u == 0 && d != 0 || d < prev || d > prev+1 {
			return fmt.Errorf("depth %d of node %d does not continue the BFS layers", d, u)
		}
		if int(d) < ck.NextDepth {
			above++
		}
		prev = d
	}
	if n == 0 || int(ck.depthOf[n-1]) != ck.NextDepth {
		return fmt.Errorf("deepest layer is not the next depth %d", ck.NextDepth)
	}
	rows := ck.edgeStart
	if len(rows) != above+1 || rows[0] != 0 || rows[above] != uint32(len(ck.edgeTo)) {
		return fmt.Errorf("edge rows do not frame the %d nodes above depth %d", above, ck.NextDepth)
	}
	for u := 1; u < len(rows); u++ {
		if rows[u] < rows[u-1] {
			return fmt.Errorf("edge rows decrease at node %d", u)
		}
	}
	from := make([]int32, n) // 1 + the source of each node's first in-edge
	for u := 0; u < above; u++ {
		for _, v := range ck.edgeTo[rows[u]:rows[u+1]] {
			if from[v] == 0 {
				from[v] = int32(u) + 1
			}
		}
	}
	for v, d := range ck.depthOf {
		if d > 0 && (from[v] == 0 || ck.depthOf[from[v]-1] != d-1) {
			return fmt.Errorf("first in-edge of node %d does not come from depth %d", v, d-1)
		}
	}
	return nil
}

// resumeExploreID restores the snapshot against m and finishes the
// exploration from the saved layer boundary. Node numbering, edge order,
// depths, and any later budget or interruption point are bit-identical to
// an uninterrupted run: the CSR prefix comes straight from the snapshot and
// the continuation sees the identical frontier in the identical order.
func resumeExploreID(ctx *resilient.Ctx, m Model, ck *ExploreCheckpoint, workers int) (*IDGraph, error) {
	c := CacheOf(m)
	rec := obs.Active()
	tr := obs.Trace()
	var root obs.TraceSpan
	if tr != nil {
		root = tr.Begin("explore", 0)
		defer tr.End(root)
	}
	mismatch := func(what string) error {
		return fmt.Errorf("%w: checkpoint does not replay against model %s (%s)", resilient.ErrBadCheckpoint, m.Name(), what)
	}
	labels, missing, ok := c.labels.ids(ck.labels)
	if !ok {
		return nil, mismatch(fmt.Sprintf("the model has no action %q", missing))
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
		EdgeAction: make([]uint32, len(ck.edgeLabel)),
		States:     make([]State, n),
		ParentOf:   make([]int32, n),
		parentEdge: make([]int32, n),
		cacheIDs:   make([]uint32, n),
	}
	for e, l := range ck.edgeLabel {
		g.EdgeAction[e] = labels[l]
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
	// by replaying its discovery edge through the successor cache. BFS
	// discovers children in their parents' order, so one enumeration of each
	// parent serves all its children, and the parent's whole row is checked
	// against it, so a drifted model fails loudly instead of resuming into a
	// divergent graph.
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
	b := c.edgeBuf()
	defer c.putEdges(b)
	enumerated := int32(-1)
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
		if p != enumerated {
			if p < 0 || int(p) >= u || g.States[p] == nil {
				return nil, mismatch("orphan node")
			}
			b.reset()
			c.enumerate(g.States[p], b)
			enumerated = p
			if err := g.replayRow(uint32(p), b, cacheToNode); err != "" {
				return nil, mismatch(err)
			}
		}
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

// replayRow checks node p's restored CSR row against b, p's enumeration:
// the same number of edges and, edge by edge, the same label id and the
// same target state, by cache id. A target the row discovers is
// materialized from the state filed under its cache id, once its key
// matches the snapshot's. It returns what differs, or "".
func (g *IDGraph) replayRow(p uint32, b *edgeBuf, cacheToNode *cidTable) string {
	lo, hi := g.EdgeStart[p], g.EdgeStart[p+1]
	if int(hi-lo) != len(b.ids) {
		return fmt.Sprintf("node %d has %d edges, the model enumerates %d", p, hi-lo, len(b.ids))
	}
	for j, cid := range b.ids {
		e := lo + uint32(j)
		if g.EdgeAction[e] != b.labels[j] {
			return fmt.Sprintf("edge %d of node %d is labeled %q, the model's %q", j, p, g.Action(int(e)), g.Label(b.labels[j]))
		}
		v := g.EdgeTo[e]
		if g.States[v] == nil && g.parentEdge[v] == int32(e) {
			if g.Cache.KeyOf(cid) != g.Keys[v] {
				return fmt.Sprintf("edge %d of node %d discovers node %d under another key", j, p, v)
			}
			g.States[v], g.cacheIDs[v] = g.Cache.StateOf(cid), cid
			cacheToNode.set(cid, v)
			continue
		}
		if g.States[v] == nil || g.cacheIDs[v] != cid {
			return fmt.Sprintf("edge %d of node %d leads to node %d, the model's to another state", j, p, v)
		}
	}
	return ""
}
