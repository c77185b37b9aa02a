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
	// have edges recorded.
	EdgeStart  []uint32
	EdgeAction []string
	EdgeTo     []uint32
	// Cache is the successor cache the exploration drew from (the model's
	// shared cache when it has one); later passes over the same model reuse
	// its enumeration work.
	Cache *SuccessorCache

	// ParentOf[u] is the node from which u was first discovered during the
	// BFS (-1 for initial nodes); parentEdge[u] is the CSR index of that
	// discovery edge, so EdgeAction[parentEdge[u]] labels the step. Because
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

// Out returns node u's outgoing edges as parallel action/target slices
// (shared; callers must not modify).
func (g *IDGraph) Out(u uint32) (actions []string, to []uint32) {
	lo, hi := g.EdgeStart[u], g.EdgeStart[u+1]
	return g.EdgeAction[lo:hi], g.EdgeTo[lo:hi]
}

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
	return uint32(pi), g.EdgeAction[g.parentEdge[u]], true
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

// grow pre-sizes the per-node arrays for about n nodes and the edge arrays
// for about edges edges. Exploration still appends — these are capacity
// hints, not commitments — so a hint that is too small only costs the
// regrowth it failed to avoid, and one that is too large costs slack
// capacity.
func (g *IDGraph) grow(n, edges int) {
	g.States = make([]State, 0, n)
	g.Keys = make([]string, 0, n)
	g.DepthOf = make([]int32, 0, n)
	g.ParentOf = make([]int32, 0, n)
	g.parentEdge = make([]int32, 0, n)
	g.cacheIDs = make([]uint32, 0, n)
	start := make([]uint32, 1, n+1)
	start[0] = 0
	g.EdgeStart = start
	if edges > 0 {
		g.EdgeAction = make([]string, 0, edges)
		g.EdgeTo = make([]uint32, 0, edges)
	}
}

// reserve grows the edge arrays by the frontier's warmed successor counts,
// and EdgeStart by one row per frontier node, so that the merge appends a
// layer without regrowing them.
func (g *IDGraph) reserve(c *SuccessorCache, frontier []uint32) {
	edges := 0
	for _, u := range frontier {
		succs, _ := c.recorded(g.cacheIDs[u])
		edges += len(succs)
	}
	g.EdgeAction = slices.Grow(g.EdgeAction, edges)
	g.EdgeTo = slices.Grow(g.EdgeTo, edges)
	g.EdgeStart = slices.Grow(g.EdgeStart, len(frontier))
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
// The successor enumeration of each frontier is sharded across workers
// goroutines (workers <= 0 means GOMAXPROCS). Per-worker results land in
// the shared successor cache and are merged in frontier order by a single
// goroutine, so the resulting graph — node numbering, edge order, depths,
// and any budget-exhaustion point — is the same for every worker count.
// One worker enumerates the frontier the same way, before the merge; the
// merge reserves the layer's edges at once from the recorded lists'
// lengths. A node budget therefore cuts the merge, not the enumeration: the
// layer it cuts has been enumerated whole.
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
// layer boundary instead of starting fresh; the finished graph is
// bit-identical to an uninterrupted run's.
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
	if hint := c.Len(); hint > 0 {
		// A warm cache approximates the graph it will yield again — the
		// interned states bound the node count, the recorded successor lists
		// the edge count — so sizing the arrays up front removes the
		// append-regrowth that otherwise dominates memoized re-exploration.
		g.grow(hint, c.EdgeHint())
	}
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

// continueExplore runs the layer loop from startDepth, whose frontier is
// the nodes first reached there, over a graph with every earlier layer
// fully expanded. It is the shared tail of a fresh exploration and a
// checkpoint resume. parent is the enclosing explore span (0 when tracing
// is off); each layer becomes one explore.layer child span.
func continueExplore(ctx *resilient.Ctx, m Model, g *IDGraph, cacheToNode *cidTable, frontier []uint32, startDepth, maxNodes, workers int, rec obs.Recorder, parent obs.SpanID) (*IDGraph, error) {
	c := g.Cache
	tr := obs.Trace()
	for d := startDepth; d < g.Depth && len(frontier) > 0; d++ {
		if err := stopPoint(ctx, "explore.layer"); err != nil {
			return g.interrupted(m, rec, d, maxNodes, err)
		}
		var lsp obs.TraceSpan
		if tr != nil {
			lsp = tr.Begin("explore.layer", parent)
		}
		if err := warmFrontier(ctx, c, g, frontier, workers, lsp.ID); err != nil {
			if tr != nil {
				tr.End(lsp)
			}
			return g.interrupted(m, rec, d, maxNodes, err)
		}
		g.reserve(c, frontier)
		edgesBefore := len(g.EdgeTo)
		var next []uint32
		for _, u := range frontier {
			succs, sids := c.recorded(g.cacheIDs[u])
			for i := range succs {
				cid := sids[i]
				v, seen := cacheToNode.get(cid)
				if !seen {
					if maxNodes > 0 && len(g.States) >= maxNodes {
						g.padEdgeStart()
						if tr != nil {
							tr.End(lsp)
						}
						g.finishExplore(rec, true)
						return g, fmt.Errorf("at depth %d (%d nodes): %w", g.ReachedDepth(), len(g.States), ErrNodeBudget)
					}
					v = g.addNode(succs[i].State, c.KeyOf(cid), d+1, cid)
					g.ParentOf[v] = int32(u)
					g.parentEdge[v] = int32(len(g.EdgeTo))
					cacheToNode.set(cid, v)
					next = append(next, v)
				}
				g.EdgeAction = append(g.EdgeAction, succs[i].Action)
				g.EdgeTo = append(g.EdgeTo, v)
			}
			g.EdgeStart = append(g.EdgeStart, uint32(len(g.EdgeTo)))
		}
		if tr != nil {
			tr.End(lsp)
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
	if err == nil {
		// The soft memory gate stops the exploration at the same
		// checkpointable boundary; the Supervisor degrades on ErrMemory
		// instead of retrying at full width.
		err = resilient.MemPressure()
	}
	return err
}

// interrupted finalizes a layer-boundary cut: the partial graph (layers
// 0..nextDepth-1 expanded, frontier = layer nextDepth untouched) is
// returned alongside the cause, wrapped with a Checkpointer so callers
// holding a -checkpoint path can persist the cut and resume it later.
func (g *IDGraph) interrupted(m Model, rec obs.Recorder, nextDepth, maxNodes int, cause error) (*IDGraph, error) {
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
// shared successor cache's hit/fill/interned-bytes view and its per-shard
// breakdown — and emits the closing journal event. budgetHit marks a
// partial graph returned with ErrNodeBudget; the event then carries the
// depth actually reached so the journal explains how far the search got.
func (g *IDGraph) finishExplore(rec obs.Recorder, budgetHit bool) {
	if rec == nil {
		return
	}
	st := g.Cache.Stats()
	rec.Set("cache.states", int64(st.States))
	rec.Set("cache.hits", st.Hits)
	rec.Set("cache.enumerations", int64(st.Enumerations))
	rec.Set("cache.interned_bytes", int64(st.InternedBytes))
	states := make([]int64, len(st.PerShard))
	hits := make([]int64, len(st.PerShard))
	enums := make([]int64, len(st.PerShard))
	for i, sc := range st.PerShard {
		states[i], hits[i], enums[i] = int64(sc.States), sc.Hits, sc.Enumerations
	}
	rec.Event("cache.shards",
		obs.F{Key: "shards", Value: st.Shards},
		obs.F{Key: "states", Value: states},
		obs.F{Key: "hits", Value: hits},
		obs.F{Key: "enumerations", Value: enums})
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

// warmFrontier enumerates the successors of a frontier's nodes into the
// shared cache: in frontier order on one worker, else one contiguous shard
// per pool worker. Only the cache is written (it is concurrency-safe) and
// cache writes are idempotent, so a shard abandoned to cancellation or a
// contained panic leaves the graph untouched: the caller treats any error
// as an interruption at the top of the layer, and a resumed run simply
// re-warms. The serial merge that follows reads the warmed lists in
// frontier order (SuccessorCache.recorded).
func warmFrontier(ctx *resilient.Ctx, c *SuccessorCache, g *IDGraph, frontier []uint32, workers int, parent obs.SpanID) error {
	if workers > len(frontier) {
		workers = len(frontier)
	}
	if workers <= 1 {
		for _, u := range frontier {
			if err := ctx.Err(); err != nil {
				return err
			}
			c.SuccessorsOf(g.cacheIDs[u], g.States[u])
		}
		return nil
	}
	shardLen := (len(frontier) + workers - 1) / workers
	shards := (len(frontier) + shardLen - 1) / shardLen
	pool := resilient.Pool{Workers: workers}
	return pool.Run(ctx, shards, func(sctx *resilient.Ctx, shard int) error {
		if err := stopPoint(sctx, "explore.warm"); err != nil {
			return err
		}
		if tr := obs.Trace(); tr != nil {
			defer tr.End(tr.BeginLane("explore.warm.shard", parent, shard+1))
		}
		lo := shard * shardLen
		hi := lo + shardLen
		if hi > len(frontier) {
			hi = len(frontier)
		}
		for _, u := range frontier[lo:hi] {
			c.SuccessorsOf(g.cacheIDs[u], g.States[u])
		}
		return nil
	})
}
