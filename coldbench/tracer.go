package main

import (
	"fmt"
	"runtime"
	"time"

	layers "repro"
	"repro/internal/core"
)

// maxDepth bounds the per-depth metrics: the deepest layer any workload
// explores is 4 (SyncSt FloodSet(4) and AsyncSynchronic MPFlood(4)).
const maxDepth = 4

// tracer times a sample's calls into the engines from outside, by the
// span each call sits in, and in a traced sample also takes the counters
// those calls leave behind: graph shape, valence, allocation and GC. It is
// used by one goroutine.
type tracer struct {
	traced bool
	vals   map[string]float64
	// depth is the number of open spans; rooted sums the spans opened at
	// depth 0, so verdict time minus rooted is the unattributed time.
	depth  int
	rooted time.Duration
	// graphs are the checked graphs, replayed after the verdict for the
	// models.* metrics.
	graphs   []*layers.IDGraph
	heapPeak uint64
}

func newTracer(traced bool) *tracer {
	return &tracer{traced: traced, vals: make(map[string]float64)}
}

func (t *tracer) add(name string, v float64) { t.vals[name] += v }

// timed runs f inside the span name. The span is closed by a defer, so a
// panic that unwinds through f (faulted_resume injects them) still closes
// it.
func (t *tracer) timed(name string, f func()) {
	start := time.Now()
	root := t.depth == 0
	t.depth++
	defer func() {
		d := time.Since(start)
		t.depth--
		t.vals[name] += d.Seconds()
		if root {
			t.rooted += d
		}
	}()
	f()
}

// mem reads the runtime's memory statistics and tracks the peak heap in
// use across reads.
func (t *tracer) mem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > t.heapPeak {
		t.heapPeak = ms.HeapInuse
	}
	return ms
}

// explore is the core.explore_s span. A traced sample reads the memory
// statistics on both sides of it, outside the span.
func (t *tracer) explore(ctx *layers.Ctx, m layers.Model, bound int) (g *layers.IDGraph, err error) {
	if t.traced {
		before := t.mem()
		defer func() {
			after := t.mem()
			t.add("explore.mallocs", float64(after.Mallocs-before.Mallocs))
			t.add("explore.alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
		}()
	}
	t.timed("core.explore_s", func() { g, err = layers.ExploreIDCtx(ctx, m, bound, 0, 0) })
	return g, err
}

// recordGraph adds a checked graph's shape and valence counts; bivalent
// holds the number of bivalent nodes of each depth layer.
func (t *tracer) recordGraph(out *outcome, bivalent []int) {
	g := out.g
	t.graphs = append(t.graphs, g)
	t.add("core.states", float64(g.Len()))
	t.add("core.edges", float64(g.NumEdges()))
	t.add("inits", float64(len(g.Inits)))
	st := g.Cache.Stats()
	t.add("cache.hits", float64(st.Hits))
	t.add("cache.lookups", float64(st.Hits)+float64(st.Enumerations))
	t.add("valence.certify_explored", float64(out.w.Explored))
	if wl := witnessLen(out.w); wl > int(t.vals["valence.witness_depth"]) {
		t.vals["valence.witness_depth"] = float64(wl)
	}
	for d, biv := range bivalent {
		t.add("valence.bivalent", float64(biv))
		if d <= maxDepth {
			t.add(fmt.Sprintf("core.layer.%d.states", d), float64(len(g.Layer(d))))
			t.add(fmt.Sprintf("valence.layer.%d.bivalent", d), float64(biv))
		}
		if biv > 0 && float64(d) > t.vals["valence.bivalent_last_layer"] {
			t.vals["valence.bivalent_last_layer"] = float64(d)
		}
	}
}

// finish derives the traced sample's per-layer metrics once its verdict is
// checked: the runtime's totals first, then the model replays, which run
// outside the verdict time and so are not in them.
func (t *tracer) finish(build, verdict time.Duration) map[string]float64 {
	ms := t.mem()
	v := t.vals
	v["models.build_s"] = build.Seconds()
	v["runtime.gc_cycles"] = float64(ms.NumGC)
	v["runtime.gc_pause_s"] = float64(ms.PauseTotalNs) / 1e9
	v["runtime.total_alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	v["runtime.heap_inuse_peak_mb"] = float64(t.heapPeak) / (1 << 20)
	v["unattributed_s"] = (verdict - t.rooted).Seconds()
	v["attributed_frac"] = t.rooted.Seconds() / verdict.Seconds()

	step, key, parents := t.replayModels()
	v["models.step_s"] = step.Seconds()
	v["models.key_s"] = key.Seconds()
	v["core.explore_other_s"] = v["core.explore_s"] - v["models.step_s"] - v["models.key_s"]
	if parents > 0 {
		v["models.branching"] = v["core.edges"] / float64(parents)
	}
	if v["core.edges"] > 0 {
		v["core.dedup_frac"] = 1 - (v["core.states"]-v["inits"])/v["core.edges"]
		v["core.allocs_per_edge"] = v["explore.mallocs"] / v["core.edges"]
	}
	if v["core.states"] > 0 {
		v["core.alloc_bytes_per_state"] = v["explore.alloc_bytes"] / v["core.states"]
		v["valence.bivalent_frac"] = v["valence.bivalent"] / v["core.states"]
	}
	if v["cache.lookups"] > 0 {
		v["core.cache_hit_frac"] = v["cache.hits"] / v["cache.lookups"]
	}
	return v
}

// replayModels re-enumerates, through the model's raw successor function,
// the successors of every node of the checked graphs that has any, and then
// builds the canonical key of every successor: the model layer's share of
// exploration, measured serially and without interning. parents is the
// number of nodes replayed.
func (t *tracer) replayModels() (step, key time.Duration, parents int) {
	var succs []layers.Succ
	start := time.Now()
	for _, g := range t.graphs {
		fn := g.Cache.Uncached()
		for u, x := range g.States {
			if g.EdgeStart[u] == g.EdgeStart[u+1] {
				continue
			}
			parents++
			succs = append(succs, fn.Successors(x)...)
		}
	}
	step = time.Since(start)
	buf := make([]byte, 0, 256)
	start = time.Now()
	for _, s := range succs {
		buf = core.AppendKeyOf(s.State, buf[:0])
	}
	key = time.Since(start)
	return step, key, parents
}
