package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/resilient"
)

// IDGraph is the dense-id form of an explored reachable state graph: nodes
// are uint32 ids assigned in BFS discovery order (deterministic for a
// deterministic model), and edges live in flat CSR arrays instead of
// per-key maps. It is the one graph type the analyses sweep.
type IDGraph struct {
	// Depth is the exploration depth bound.
	Depth int
	// States[u] is the state of node u; Keys[u] its canonical key.
	States []State
	Keys   []string
	// DepthOf[u] is the first (minimum) layer depth at which node u was
	// reached.
	DepthOf []int32
	// Inits are the initial-state nodes, in Inits order (duplicates
	// removed, first occurrence kept).
	Inits []uint32
	// EdgeStart/EdgeAction/EdgeTo are the CSR edge arrays: node u's
	// outgoing labeled edges, in successor-enumeration order, are the index
	// range [EdgeStart[u], EdgeStart[u+1]). Only nodes at depth < Depth
	// have edges recorded. EdgeAction holds each edge's label id, which
	// Label renders (Action renders edge e's).
	EdgeStart  []uint32
	EdgeAction []uint32
	EdgeTo     []uint32
	// Cache is the successor cache the exploration drew from (the model's
	// shared cache when it has one). It remembers the model's latest
	// explored graph, so a later exploration of the same model from the
	// same roots takes its layers from that graph.
	Cache *SuccessorCache

	// ParentOf[u] is the node from which u was first discovered during the
	// BFS (-1 for initial nodes); parentEdge[u] is the CSR index of that
	// discovery edge, so Action(parentEdge[u]) labels the step. Because
	// discovery is breadth-first in enumeration order, the parent chain of u
	// is the lexicographically first shortest path from an initial state.
	ParentOf   []int32
	parentEdge []int32

	// cacheIDs[u] is node u's id in Cache (not deterministic; a join key
	// only).
	cacheIDs []uint32
	// layers[d] lists the nodes first reached at depth d, in discovery
	// order: one contiguous id run per layer, in layer order, since BFS
	// assigns ids layer by layer and resume rejects checkpoints whose
	// depths would break that (DecodeExploreCheckpoint).
	layers [][]uint32

	byKeyOnce  sync.Once
	byKey      map[string]uint32
	gradedOnce sync.Once
	graded     bool

	auxMu sync.Mutex
	aux   map[any]any
}

// noNode is the "absent" sentinel of the dense cache-id -> node table.
const noNode = ^uint32(0)

// cidTable maps dense cache ids to graph node ids without hashing: cache
// ids are dense (0..cache.Len()-1), so a direct-indexed array indexed by
// cache id replaces the per-edge hash-map lookup that used to dominate the
// merge loop.
type cidTable struct{ node []uint32 }

func newCIDTable(hint int) *cidTable {
	t := &cidTable{node: make([]uint32, hint)}
	for i := range t.node {
		t.node[i] = noNode
	}
	return t
}

func (t *cidTable) get(cid uint32) (uint32, bool) {
	if int(cid) >= len(t.node) {
		return 0, false
	}
	u := t.node[cid]
	return u, u != noNode
}

func (t *cidTable) set(cid, u uint32) {
	if int(cid) >= len(t.node) {
		need := int(cid) + 1
		if min := 2 * len(t.node); need < min {
			need = min
		}
		grown := make([]uint32, need)
		n := copy(grown, t.node)
		for i := n; i < need; i++ {
			grown[i] = noNode
		}
		t.node = grown
	}
	t.node[cid] = u
}

// Len returns the number of nodes.
func (g *IDGraph) Len() int { return len(g.States) }

// NumEdges returns the number of recorded edges.
func (g *IDGraph) NumEdges() int { return len(g.EdgeTo) }

// Out returns node u's outgoing edges as parallel label-id/target slices
// (shared; callers must not modify). Label renders a label id.
func (g *IDGraph) Out(u uint32) (labels, to []uint32) {
	lo, hi := g.EdgeStart[u], g.EdgeStart[u+1]
	return g.EdgeAction[lo:hi], g.EdgeTo[lo:hi]
}

// Label returns the action label of label id l.
func (g *IDGraph) Label(l uint32) string { return g.Cache.Label(l) }

// Action returns the action label of edge e.
func (g *IDGraph) Action(e int) string { return g.Label(g.EdgeAction[e]) }

// Layer returns the nodes first reached at depth d, in BFS discovery order
// (shared; callers must not modify).
func (g *IDGraph) Layer(d int) []uint32 {
	if d < 0 || d >= len(g.layers) {
		return nil
	}
	return g.layers[d]
}

// NumLayers returns the number of non-empty depth layers; reverse sweeps
// iterate d from NumLayers()-1 down to 0.
func (g *IDGraph) NumLayers() int { return len(g.layers) }

// ReachedDepth returns the deepest layer actually populated — equal to
// Depth for a completed exploration that found states at every layer, and
// the depth the search got to before the node budget ran out for a partial
// graph returned alongside ErrNodeBudget. -1 for an empty graph.
func (g *IDGraph) ReachedDepth() int { return len(g.layers) - 1 }

// Parent returns the node from which u was first discovered and the action
// labeling that discovery edge. ok is false for initial nodes.
func (g *IDGraph) Parent(u uint32) (p uint32, action string, ok bool) {
	pi := g.ParentOf[u]
	if pi < 0 {
		return 0, "", false
	}
	return uint32(pi), g.Action(int(g.parentEdge[u])), true
}

// PathTo reconstructs the BFS-discovery execution reaching node u by
// parent-pointer walkback: the lexicographically first shortest path from
// an initial state, in successor-enumeration order.
func (g *IDGraph) PathTo(u uint32) *Execution {
	var steps []Step
	for {
		p, action, ok := g.Parent(u)
		if !ok {
			break
		}
		steps = append(steps, Step{Action: action, State: g.States[u]})
		u = p
	}
	// The walk collected steps leaf-first; reverse in place.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	return &Execution{Init: g.States[u], Steps: steps}
}

// NodeByKey returns the node with the given canonical key. The key index is
// built lazily on first use and is safe for concurrent callers.
func (g *IDGraph) NodeByKey(key string) (uint32, bool) {
	g.byKeyOnce.Do(func() {
		g.byKey = make(map[string]uint32, len(g.Keys))
		for u, k := range g.Keys {
			g.byKey[k] = uint32(u)
		}
	})
	u, ok := g.byKey[key]
	return u, ok
}

// LayerSpan returns the node-id window [lo, hi) of the depth-d layer
// ([0, 0) when d is out of range or the layer is empty). Layers are
// contiguous id runs, so a layer's nodes are the id range [lo, hi) and its
// edges the CSR range [EdgeStart[lo], EdgeStart[hi]) — both sequential in
// memory, so a sweep walks EdgeStart/EdgeTo strictly forward
// (prefetch-friendly) and its 64-node word grid is shared with the field's
// bit-planes.
func (g *IDGraph) LayerSpan(d int) (lo, hi uint32) {
	layer := g.Layer(d)
	if len(layer) == 0 {
		return 0, 0
	}
	return layer[0], layer[len(layer)-1] + 1
}

// StatesAtDepth returns the states first reached at exactly depth d, in BFS
// discovery order: the States window of LayerSpan(d), shared with the graph
// (callers must not modify it). It is nil when the layer is empty.
func (g *IDGraph) StatesAtDepth(d int) []State {
	lo, hi := g.LayerSpan(d)
	if lo == hi {
		return nil
	}
	return g.States[lo:hi]
}

// Aux returns the auxiliary analysis value cached on g under key, building
// it with build on first use. Analyses derive immutable per-graph indexes
// (bit-planes, check tables) from the CSR arrays; caching them on the graph
// amortizes the derivation across sweeps the same way byKey and Graded are
// amortized. key should be an unexported zero-size type owned by the
// caller. build must not call Aux on the same graph.
func (g *IDGraph) Aux(key any, build func() any) any {
	g.auxMu.Lock()
	defer g.auxMu.Unlock()
	if v, ok := g.aux[key]; ok {
		return v
	}
	if g.aux == nil {
		g.aux = make(map[any]any)
	}
	v := build()
	g.aux[key] = v
	return v
}

// Graded reports whether every recorded edge goes from a node at depth d to
// a node at depth d+1. Models whose states carry a global round counter
// (the synchronous families, IIS) always produce graded graphs; the
// asynchronous families can produce same-depth shortcut edges at small n,
// where one schedule reaches in one layer a state another schedule needs
// two for. Graded graphs admit single-pass reverse-layer dynamic
// programming; sweeps check this and fall back on the rest.
func (g *IDGraph) Graded() bool {
	g.gradedOnce.Do(func() {
		g.graded = true
		for u := range g.States {
			d := g.DepthOf[u]
			lo, hi := g.EdgeStart[u], g.EdgeStart[u+1]
			for e := lo; e < hi; e++ {
				if g.DepthOf[g.EdgeTo[e]] != d+1 {
					g.graded = false
					return
				}
			}
		}
	})
	return g.graded
}

// addNode appends a node and returns its id.
func (g *IDGraph) addNode(x State, key string, depth int, cacheID uint32) uint32 {
	u := uint32(len(g.States))
	g.States = append(g.States, x)
	g.Keys = append(g.Keys, key)
	g.DepthOf = append(g.DepthOf, int32(depth))
	g.ParentOf = append(g.ParentOf, -1)
	g.parentEdge = append(g.parentEdge, -1)
	g.cacheIDs = append(g.cacheIDs, cacheID)
	for len(g.layers) <= depth {
		g.layers = append(g.layers, nil)
	}
	g.layers[depth] = append(g.layers[depth], u)
	return u
}

// padEdgeStart extends EdgeStart so that every node has an (empty if
// unexpanded) edge range.
func (g *IDGraph) padEdgeStart() {
	last := uint32(len(g.EdgeTo))
	for len(g.EdgeStart) < len(g.States)+1 {
		g.EdgeStart = append(g.EdgeStart, last)
	}
}

// ExploreIDCtx builds the dense-id reachable state graph of m to the given
// depth, drawing successors from the model's shared cache when it has one.
// maxNodes bounds the number of distinct states (0 = no bound); on budget
// exhaustion the partial graph explored so far is returned alongside the
// wrapped ErrNodeBudget.
//
// Each layer's frontier is expanded into flat edge buffers of (label id,
// cache id) pairs, reused across layers: by a plain loop on one worker,
// else by a pool of workers goroutines (workers <= 0 means GOMAXPROCS),
// one contiguous shard of the frontier and one buffer each. A single
// goroutine then merges the buffers in frontier order, growing the edge
// and node arrays once per layer, so the resulting graph — node
// numbering, edge order, depths, and any budget-exhaustion point — is the
// same for every worker count. A node budget cuts the merge, not the
// expansion: the layer it cuts has been enumerated whole.
//
// The model's cache remembers the latest complete graph explored without a
// node budget to depth 1 or more. A later exploration without a budget,
// from the same roots in the same order, reuses it. To a depth no deeper
// than the remembered graph's, it takes that graph's first layers: it does
// no layer work and polls no fault point. To a deeper one, it continues
// from the remembered graph's last layer. Either way the graph is
// bit-identical to a fresh model's, CacheStats.Hits grows by the expanded
// nodes reused, and the journal gets one explore.reuse event.
//
// A nil ctx never cancels. Cancellation (and the chaos explore.layer fault
// point) is checked once per layer, so a live run pays one atomic load per
// BFS depth; worker goroutines additionally poll per shard. When the
// context fires, the partial graph explored to the last completed layer is
// returned alongside a wrapped ErrCanceled/ErrDeadline carrying a
// resilient.Checkpointer for the cut, and the unresolved frontier is the
// deepest populated layer (g.Layer(g.ReachedDepth())).
//
// If ctx carries a resume snapshot (resilient.TagExplore) matching this
// model, depth, and budget, exploration continues from the snapshot's
// layer boundary instead, whatever the cache remembers; the finished graph
// is bit-identical to an uninterrupted run's.
func ExploreIDCtx(ctx *resilient.Ctx, m Model, depth, maxNodes, workers int) (*IDGraph, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if data := ctx.PeekResume(resilient.TagExplore); data != nil {
		ck, err := DecodeExploreCheckpoint(data)
		if err != nil {
			return nil, err
		}
		if ck.Matches(m, depth, maxNodes) {
			ctx.TakeResume(resilient.TagExplore)
			return resumeExploreID(ctx, m, ck, workers)
		}
	}
	c := CacheOf(m)
	rec := obs.Active()
	tr := obs.Trace()
	var root obs.TraceSpan
	if tr != nil {
		root = tr.Begin("explore", 0)
		defer tr.End(root)
	}
	g := &IDGraph{Depth: depth, Cache: c, EdgeStart: []uint32{0}}
	cacheToNode := newCIDTable(c.Len())
	var frontier []uint32
	// Seeding runs to completion even under a canceled ctx: the checkpoint
	// format only represents layer-boundary cuts, so an exploration stopped
	// mid-seed could not be resumed. The layer loop polls immediately after
	// (stopPoint in continueExplore), bounding cancellation latency to one
	// sweep over the model's initial states.
	for _, x := range m.Inits() { //lint:poll seeding is atomic; checkpoints cut at layer boundaries only
		cid := c.ID(x)
		if _, seen := cacheToNode.get(cid); seen {
			continue
		}
		u := g.addNode(x, c.KeyOf(cid), 0, cid)
		cacheToNode.set(cid, u)
		g.Inits = append(g.Inits, u)
		frontier = append(frontier, u)
	}
	if last := c.last.Load(); last != nil && maxNodes == 0 && depth >= 0 && last.seededWith(g.cacheIDs) {
		return reuse(ctx, m, last, depth, workers, rec, root.ID)
	}
	if rec != nil {
		rec.Add("explore.runs", 1)
		rec.Add("explore.nodes", int64(len(frontier)))
		rec.Event("explore.start",
			obs.F{Key: "model", Value: m.Name()},
			obs.F{Key: "depth", Value: depth},
			obs.F{Key: "max_nodes", Value: maxNodes},
			obs.F{Key: "workers", Value: workers},
			obs.F{Key: "inits", Value: len(frontier)})
	}
	return continueExplore(ctx, m, g, cacheToNode, frontier, 0, maxNodes, workers, rec, root.ID)
}

// reuse answers an unbudgeted exploration of m to depth from last, the
// graph m's cache remembers for the same roots: last's first layers when
// depth is not deeper, else last continued from its deepest layer.
func reuse(ctx *resilient.Ctx, m Model, last *IDGraph, depth, workers int, rec *obs.Metrics, parent obs.SpanID) (*IDGraph, error) {
	g := last.prefix(min(depth, last.Depth))
	expanded := g.above(g.Depth)
	g.Cache.hits.Add(int64(expanded))
	if rec != nil {
		rec.Add("explore.reuses", 1)
		rec.Event("explore.reuse",
			obs.F{Key: "model", Value: m.Name()},
			obs.F{Key: "depth", Value: depth},
			obs.F{Key: "nodes", Value: g.Len()})
	}
	if depth <= last.Depth {
		g.finishExplore(rec, false)
		return g, nil
	}
	// Unpad the rows of the last layer, which the continuation expands.
	g.EdgeStart = g.EdgeStart[: expanded+1 : expanded+1]
	g.Depth = depth
	return continueExplore(ctx, m, g, g.nodeTable(), g.Layer(last.Depth), last.Depth, 0, workers, rec, parent)
}

// nodeTable maps the cache ids of g's nodes to the nodes.
func (g *IDGraph) nodeTable() *cidTable {
	t := newCIDTable(g.Cache.Len())
	for u, cid := range g.cacheIDs {
		t.set(cid, uint32(u))
	}
	return t
}

// seededWith reports whether g's initial nodes are the states interned
// under roots, in that order.
func (g *IDGraph) seededWith(roots []uint32) bool {
	if len(roots) != len(g.Inits) {
		return false
	}
	for i, u := range g.Inits {
		if g.cacheIDs[u] != roots[i] {
			return false
		}
	}
	return true
}

// above returns the number of nodes first reached above depth d: the id at
// which layer d starts, since depths never decrease with the id.
func (g *IDGraph) above(d int) int {
	u, _ := slices.BinarySearch(g.DepthOf, int32(d))
	return u
}

// prefix returns the first layers of g, a complete exploration, as the
// graph an exploration to depth (0 <= depth <= g.Depth) builds: the nodes
// first reached at depth or above it, with the edges of those above it. It
// shares g's arrays, capped so that appending to them copies, and none of
// g's analysis caches.
func (g *IDGraph) prefix(depth int) *IDGraph {
	lo, hi := g.above(depth), g.above(depth+1)
	e := g.EdgeStart[lo]
	start := g.EdgeStart[: hi+1 : hi+1]
	if start[hi] != e {
		// g expanded layer depth; the prefix leaves it unexpanded.
		start = make([]uint32, hi+1)
		copy(start, g.EdgeStart[:lo+1])
		for u := lo + 1; u <= hi; u++ {
			start[u] = e
		}
	}
	layers := min(depth+1, len(g.layers))
	return &IDGraph{
		Depth:      depth,
		States:     g.States[:hi:hi],
		Keys:       g.Keys[:hi:hi],
		DepthOf:    g.DepthOf[:hi:hi],
		Inits:      slices.Clip(g.Inits),
		EdgeStart:  start,
		EdgeAction: g.EdgeAction[:e:e],
		EdgeTo:     g.EdgeTo[:e:e],
		Cache:      g.Cache,
		ParentOf:   g.ParentOf[:hi:hi],
		parentEdge: g.parentEdge[:hi:hi],
		cacheIDs:   g.cacheIDs[:hi:hi],
		layers:     g.layers[:layers:layers],
	}
}

// continueExplore runs the layer loop from startDepth, whose frontier is
// the nodes first reached there, over a graph with every earlier layer
// fully expanded. It is the shared tail of a fresh exploration, a
// checkpoint resume and a remembered graph's continuation. parent is the
// enclosing explore span (0 when tracing is off); each layer becomes one
// explore.layer child span. A complete graph explored without a budget to
// depth 1 or more becomes the one its cache remembers.
func continueExplore(ctx *resilient.Ctx, m Model, g *IDGraph, cacheToNode *cidTable, frontier []uint32, startDepth, maxNodes, workers int, rec *obs.Metrics, parent obs.SpanID) (*IDGraph, error) {
	tr := obs.Trace()
	// The expansion shards and the merge's discoveries are reused across
	// layers.
	var bufs []shard
	var found []discovery
	for d := startDepth; d < g.Depth && len(frontier) > 0; d++ {
		if err := stopPoint(ctx, "explore.layer"); err != nil {
			return g.interrupted(m, rec, d, maxNodes, err)
		}
		var lsp obs.TraceSpan
		if tr != nil {
			lsp = tr.Begin("explore.layer", parent)
		}
		shards, err := g.expand(ctx, frontier, workers, &bufs, lsp.ID)
		if err != nil {
			if tr != nil {
				tr.End(lsp)
			}
			return g.interrupted(m, rec, d, maxNodes, err)
		}
		edgesBefore := len(g.EdgeTo)
		next, cut := g.merge(frontier, shards, d+1, maxNodes, cacheToNode, &found)
		if tr != nil {
			tr.End(lsp)
		}
		if cut {
			g.padEdgeStart()
			g.finishExplore(rec, true)
			return g, fmt.Errorf("at depth %d (%d nodes): %w", g.ReachedDepth(), len(g.States), ErrNodeBudget)
		}
		if rec != nil {
			rec.Add("explore.nodes", int64(len(next)))
			rec.Add("explore.edges", int64(len(g.EdgeTo)-edgesBefore))
			rec.Set("explore.frontier", int64(len(next)))
			rec.Record("explore.layer.width", int64(len(frontier)))
			headroom := int64(-1)
			if maxNodes > 0 {
				headroom = int64(maxNodes - len(g.States))
			}
			rec.Event("explore.depth",
				obs.F{Key: "depth", Value: d + 1},
				obs.F{Key: "frontier", Value: len(next)},
				obs.F{Key: "nodes", Value: len(g.States)},
				obs.F{Key: "edges", Value: len(g.EdgeTo)},
				obs.F{Key: "budget_headroom", Value: headroom})
		}
		frontier = next
	}
	g.padEdgeStart()
	if maxNodes == 0 && g.Depth > 0 && g.Len() > 0 {
		g.Cache.last.Store(g.prefix(g.Depth))
	}
	g.finishExplore(rec, false)
	return g, nil
}

// stopPoint is the per-layer interruption probe: the context's cancel flag
// (one atomic load when live) and the named chaos fault point (one atomic
// load when disarmed). Injected budget faults are routed through
// ErrNodeBudget so they surface exactly like a real exhausted budget —
// while still carrying the layer-boundary checkpoint, unlike a genuine
// mid-layer budget stop.
func stopPoint(ctx *resilient.Ctx, point string) error {
	err := chaos.Check(ctx, point)
	var f *chaos.Fault
	if errors.As(err, &f) && f.Kind == chaos.KindBudget {
		return fmt.Errorf("%w: %w", ErrNodeBudget, err)
	}
	return err
}

// interrupted finalizes a layer-boundary cut: the partial graph (layers
// 0..nextDepth-1 expanded, frontier = layer nextDepth untouched) is
// returned alongside the cause, wrapped with a Checkpointer so callers
// holding a -checkpoint path can persist the cut and resume it later.
func (g *IDGraph) interrupted(m Model, rec *obs.Metrics, nextDepth, maxNodes int, cause error) (*IDGraph, error) {
	g.padEdgeStart()
	if rec != nil {
		rec.Add("explore.interrupts", 1)
		rec.Event("explore.interrupted",
			obs.F{Key: "model", Value: m.Name()},
			obs.F{Key: "next_depth", Value: nextDepth},
			obs.F{Key: "nodes", Value: g.Len()},
			obs.F{Key: "cause", Value: cause.Error()})
	}
	ck := &ExploreCheckpoint{Model: m.Name(), Depth: g.Depth, MaxNodes: maxNodes, NextDepth: nextDepth, g: g}
	err := fmt.Errorf("core: exploration interrupted at depth %d (%d nodes): %w", nextDepth, g.Len(), cause)
	return g, resilient.WithCheckpoint(err, ck)
}

// finishExplore records the exploration's final counters — including the
// shared successor cache's reuse/enumeration/interned-bytes view — and
// emits the closing journal event. budgetHit marks a partial graph
// returned with ErrNodeBudget; the event then carries the depth actually
// reached so the journal explains how far the search got.
func (g *IDGraph) finishExplore(rec *obs.Metrics, budgetHit bool) {
	if rec == nil {
		return
	}
	st := g.Cache.Stats()
	rec.Set("cache.states", int64(st.States))
	rec.Set("cache.hits", st.Hits)
	rec.Set("cache.enumerations", int64(st.Enumerations))
	rec.Set("cache.interned_bytes", int64(st.InternedBytes))
	name, fields := "explore.done", []obs.F{
		{Key: "nodes", Value: g.Len()},
		{Key: "edges", Value: g.NumEdges()},
		{Key: "reached_depth", Value: g.ReachedDepth()},
		{Key: "depth_bound", Value: g.Depth},
	}
	if budgetHit {
		rec.Add("explore.budget_hits", 1)
		name = "explore.budget"
	}
	rec.Event(name, fields...)
}

// shard is one worker's expansion of a run of frontier positions: their
// edges, flat, and where each position's edges end. An exploration reuses
// its shards across layers, so a layer allocates nothing per source.
type shard struct {
	edges edgeBuf
	ends  []uint32
	// Pad shards onto separate cache lines: every emitted edge writes its
	// shard's slice headers.
	_ [32]byte
}

// reset empties sh, keeping its arrays.
func (sh *shard) reset() {
	sh.edges.reset()
	sh.ends = sh.ends[:0]
}

// expand enumerates the successors of a frontier's nodes into shards: all
// positions into one on one worker, else one contiguous run of positions
// per pool worker, each into its own. It returns the shards used, which
// hold the frontier in order, taken from bufs (grown when it has too
// few). Only the shards and the cache (which is concurrency-safe) are
// written, so a shard abandoned to cancellation or a contained panic
// leaves the graph untouched: the caller treats any error as an
// interruption at the top of the layer, and a resumed run simply expands
// the layer again.
func (g *IDGraph) expand(ctx *resilient.Ctx, frontier []uint32, workers int, bufs *[]shard, parent obs.SpanID) ([]shard, error) {
	shardLen, n := len(frontier), 1
	if workers = min(workers, len(frontier)); workers > 1 {
		shardLen = (len(frontier) + workers - 1) / workers
		n = (len(frontier) + shardLen - 1) / shardLen
	}
	if len(*bufs) < n {
		*bufs = append(*bufs, make([]shard, n-len(*bufs))...)
	}
	shards := (*bufs)[:n]
	if n == 1 {
		sh := &shards[0]
		sh.reset()
		for _, u := range frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			g.Cache.enumerate(g.States[u], &sh.edges)
			sh.ends = append(sh.ends, uint32(len(sh.edges.ids)))
		}
		return shards, nil
	}
	pool := resilient.Pool{Workers: workers}
	return shards, pool.Run(ctx, n, func(sctx *resilient.Ctx, s int) error {
		if err := stopPoint(sctx, "explore.warm"); err != nil {
			return err
		}
		if tr := obs.Trace(); tr != nil {
			defer tr.End(tr.BeginLane("explore.warm.shard", parent, s+1))
		}
		sh := &shards[s]
		sh.reset()
		for _, u := range frontier[s*shardLen : min((s+1)*shardLen, len(frontier))] {
			g.Cache.enumerate(g.States[u], &sh.edges)
			sh.ends = append(sh.ends, uint32(len(sh.edges.ids)))
		}
		return nil
	})
}

// discovery is a node a layer's merge discovers: its cache id, and its
// discovery parent and edge.
type discovery struct{ cid, parent, edge uint32 }

// merge appends the edges the frontier's nodes were expanded into (shards,
// in frontier order) and adds the nodes they discover, which it returns,
// as layer depth. It grows the edge arrays once, by the layer's edge
// count, and the node arrays once, by its discoveries; found is scratch
// for them. With maxNodes > 0 it stops at the first discovery past the
// budget and reports cut: the edges before it and the nodes they
// discovered stay in the graph, and the row being merged stays open.
func (g *IDGraph) merge(frontier []uint32, shards []shard, depth, maxNodes int, cacheToNode *cidTable, found *[]discovery) (next []uint32, cut bool) {
	edges := 0
	for i := range shards {
		edges += len(shards[i].edges.ids)
	}
	labels, to := slices.Grow(g.EdgeAction, edges), slices.Grow(g.EdgeTo, edges)
	g.EdgeStart = slices.Grow(g.EdgeStart, len(frontier))
	base, disc, pos := len(g.States), (*found)[:0], 0
rows:
	for s := range shards {
		sh := &shards[s]
		lo := uint32(0)
		for _, hi := range sh.ends {
			u := frontier[pos]
			pos++
			for e := lo; e < hi; e++ {
				cid := sh.edges.ids[e]
				v, seen := cacheToNode.get(cid)
				if !seen {
					if maxNodes > 0 && base+len(disc) >= maxNodes {
						cut = true
						break rows
					}
					v = uint32(base + len(disc))
					disc = append(disc, discovery{cid: cid, parent: u, edge: uint32(len(to))})
					cacheToNode.set(cid, v)
				}
				labels = append(labels, sh.edges.labels[e])
				to = append(to, v)
			}
			g.EdgeStart = append(g.EdgeStart, uint32(len(to)))
			lo = hi
		}
	}
	g.EdgeAction, g.EdgeTo, *found = labels, to, disc
	return g.addLayer(disc, depth), cut
}

// addLayer appends the discovered nodes as layer depth, reading each
// state and key from the cache, and returns the layer. Each node array
// grows once.
func (g *IDGraph) addLayer(found []discovery, depth int) []uint32 {
	k := len(found)
	if k == 0 {
		return nil
	}
	base := uint32(len(g.States))
	g.States, g.Keys = slices.Grow(g.States, k), slices.Grow(g.Keys, k)
	g.DepthOf, g.ParentOf = slices.Grow(g.DepthOf, k), slices.Grow(g.ParentOf, k)
	g.parentEdge, g.cacheIDs = slices.Grow(g.parentEdge, k), slices.Grow(g.cacheIDs, k)
	layer := make([]uint32, k)
	for i, f := range found {
		e := g.Cache.entry(f.cid)
		g.States = append(g.States, e.state)
		g.Keys = append(g.Keys, e.key)
		g.DepthOf = append(g.DepthOf, int32(depth))
		g.ParentOf = append(g.ParentOf, int32(f.parent))
		g.parentEdge = append(g.parentEdge, int32(f.edge))
		g.cacheIDs = append(g.cacheIDs, f.cid)
		layer[i] = base + uint32(i)
	}
	for len(g.layers) < depth {
		g.layers = append(g.layers, nil)
	}
	g.layers = append(g.layers, layer)
	return layer
}
