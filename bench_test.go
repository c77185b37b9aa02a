package layers_test

// Benchmark harness: one benchmark per experiment in the EXPERIMENTS.md
// index (the paper has no numbered tables/figures; its evaluation is its
// lemma/theorem sequence, and each Ek below regenerates the machine-checked
// form of one claim). Custom metrics report search effort alongside time:
// states explored, memoized valence entries, witness depth.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	layers "repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/resilient"
	"repro/internal/tasks"
	"repro/internal/valence"
)

// benchField sweeps the valence field of g, failing the benchmark on any
// error.
func benchField(b *testing.B, g *layers.IDGraph) *layers.Field {
	b.Helper()
	f, err := layers.NewFieldCtx(nil, g)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkE1_InitialConnectivity — Lemma 3.6: Con_0 similarity
// connectivity and existence of a bivalent initial state. Whole-graph row:
// the graph is materialized once and each iteration rebuilds the
// similarity structure (bucketed) and the valence field (one sweep).
func BenchmarkE1_InitialConnectivity(b *testing.B) {
	for _, n := range []int{3, 4, 5, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := protocols.FloodSet{Rounds: 2}
			m := layers.MobileS1(p, n)
			g, err := layers.ExploreIDCtx(nil, m, 2, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inits := m.Inits()
				if _, conn := valence.SetSDiameter(inits); !conn {
					b.Fatal("Con_0 not similarity connected")
				}
				f := benchField(b, g)
				found := false
				for _, u := range g.Layer(0) {
					if f.Bivalent(u) {
						found = true
						break
					}
				}
				if !found {
					b.Fatal("no bivalent initial state")
				}
			}
			b.ReportMetric(float64(g.Len()), "states")
		})
	}
}

// BenchmarkE2_MobileImpossibility — Lemma 5.1 + Corollary 5.2: layer
// connectivity and refutation of consensus in M^mf. Whole-graph row: the
// CSR graph is materialized once; each iteration is a sweep-based
// certification pass over it.
func BenchmarkE2_MobileImpossibility(b *testing.B) {
	for _, cfg := range []struct{ n, bound int }{{3, 2}, {3, 3}, {4, 2}, {5, 2}} {
		b.Run(fmt.Sprintf("n=%d/B=%d", cfg.n, cfg.bound), func(b *testing.B) {
			p := protocols.FloodSet{Rounds: cfg.bound}
			m := layers.MobileS1(p, cfg.n)
			g, err := layers.ExploreIDCtx(nil, m, cfg.bound, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var explored int
			for i := 0; i < b.N; i++ {
				w, err := layers.CertifyGraphCtx(nil, g, 0)
				if err != nil {
					b.Fatal(err)
				}
				if w.Kind == layers.OK {
					b.Fatal("consensus certified in M^mf")
				}
				explored = w.Explored
			}
			b.ReportMetric(float64(explored), "states")
		})
	}
}

// BenchmarkE3_ShmemSynchronic — Lemma 5.3 + Corollary 5.4: synchronic
// layer analysis and refutation in M^rw.
func BenchmarkE3_ShmemSynchronic(b *testing.B) {
	b.Run("layer-analysis/n=3", func(b *testing.B) {
		p := protocols.SMVote{Phases: 2}
		m := layers.SharedMemory(p, 3)
		g, err := layers.ExploreIDCtx(nil, m, 3, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := benchField(b, g)
			for _, u := range g.Layer(0) {
				r := f.AnalyzeNode(u)
				if !r.ValenceConnected {
					b.Fatal("S^rw layer not valence connected")
				}
			}
		}
		b.ReportMetric(float64(g.Len()), "states")
	})
	b.Run("certify/n=3/B=1", func(b *testing.B) {
		p := protocols.SMVote{Phases: 1}
		m := layers.SharedMemory(p, 3)
		g, err := layers.ExploreIDCtx(nil, m, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var explored int
		for i := 0; i < b.N; i++ {
			w, err := layers.CertifyGraphCtx(nil, g, 0)
			if err != nil {
				b.Fatal(err)
			}
			if w.Kind == layers.OK {
				b.Fatal("consensus certified in M^rw")
			}
			explored = w.Explored
		}
		b.ReportMetric(float64(explored), "states")
	})
}

// BenchmarkE4_PermutationLayering — the permutation layering: diamond
// identity, transposition similarity, refutation in async MP.
func BenchmarkE4_PermutationLayering(b *testing.B) {
	b.Run("diamond/n=3", func(b *testing.B) {
		m := layers.AsyncMessagePassing(protocols.MPFullInfo{}, 3)
		x := m.Initial([]int{0, 1, 1})
		for i := 0; i < b.N; i++ {
			y := m.Sequential(m.Sequential(x, []int{0, 1, 2}), []int{0, 1})
			yp := m.Sequential(m.Sequential(x, []int{0, 1}), []int{2, 0, 1})
			if y.Key() != yp.Key() {
				b.Fatal("diamond identity failed")
			}
		}
	})
	b.Run("certify/n=3/B=1", func(b *testing.B) {
		p := protocols.MPFlood{Phases: 1}
		m := layers.AsyncMessagePassing(p, 3)
		g, err := layers.ExploreIDCtx(nil, m, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var explored int
		for i := 0; i < b.N; i++ {
			w, err := layers.CertifyGraphCtx(nil, g, 0)
			if err != nil {
				b.Fatal(err)
			}
			if w.Kind == layers.OK {
				b.Fatal("consensus certified in async MP")
			}
			explored = w.Explored
		}
		b.ReportMetric(float64(explored), "states")
	})
}

// BenchmarkE5_SyncLowerBound — Corollary 6.3: FloodSet(t+1) certified,
// FloodSet(t) refuted. Whole-graph rows: the graph is materialized once
// per configuration and each iteration is one sweep-based certification;
// n=5 and n=6 were impractical under the per-state recursive engine.
func BenchmarkE5_SyncLowerBound(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 1}, {4, 2}, {5, 1}, {6, 1}} {
		b.Run(fmt.Sprintf("certify/n=%d/t=%d", cfg.n, cfg.t), func(b *testing.B) {
			p := protocols.FloodSet{Rounds: cfg.t + 1}
			m := layers.SyncSt(p, cfg.n, cfg.t)
			g, err := layers.ExploreIDCtx(nil, m, cfg.t+1, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var explored int
			for i := 0; i < b.N; i++ {
				w, err := layers.CertifyGraphCtx(nil, g, 0)
				if err != nil {
					b.Fatal(err)
				}
				if w.Kind != layers.OK {
					b.Fatalf("FloodSet(t+1) refuted: %v", w.Kind)
				}
				explored = w.Explored
			}
			b.ReportMetric(float64(explored), "states")
		})
		b.Run(fmt.Sprintf("refute/n=%d/t=%d", cfg.n, cfg.t), func(b *testing.B) {
			p := protocols.FloodSet{Rounds: cfg.t}
			m := layers.SyncSt(p, cfg.n, cfg.t)
			g, err := layers.ExploreIDCtx(nil, m, cfg.t, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var depth int
			for i := 0; i < b.N; i++ {
				w, err := layers.CertifyGraphCtx(nil, g, 0)
				if err != nil {
					b.Fatal(err)
				}
				if w.Kind == layers.OK {
					b.Fatal("too-fast FloodSet certified")
				}
				depth = w.Exec.Len()
			}
			b.ReportMetric(float64(depth), "witness-layers")
		})
	}
}

// BenchmarkE6_FastUnivalence — Lemma 6.4: failure-free rounds after <= k
// failures force univalence in a fast protocol. Whole-graph row: one field
// sweep per iteration answers every univalence query by mask lookup (the
// failure-free action is the first CSR out-edge of every node).
func BenchmarkE6_FastUnivalence(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 2}} {
		b.Run(fmt.Sprintf("n=%d/t=%d", cfg.n, cfg.t), func(b *testing.B) {
			rounds := cfg.t + 1
			p := protocols.FloodSet{Rounds: rounds}
			m := layers.SyncSt(p, cfg.n, cfg.t)
			g, err := layers.ExploreIDCtx(nil, m, rounds, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := benchField(b, g)
				for d := 0; d < rounds; d++ {
					for _, u := range g.Layer(d) {
						ff := g.EdgeTo[g.EdgeStart[u]]
						if mask := f.Mask(ff); mask != valence.V0 && mask != valence.V1 {
							b.Fatal("failure-free successor not univalent")
						}
					}
				}
			}
			b.ReportMetric(float64(g.Len()), "states")
		})
	}
}

// BenchmarkE7_ThickConnectivity — Theorem 7.2 / Corollary 7.3: the task
// zoo's 1-thick-connectivity verdicts.
func BenchmarkE7_ThickConnectivity(b *testing.B) {
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("zoo/n=%d", n), func(b *testing.B) {
			zoo := tasks.Zoo(n)
			for i := 0; i < b.N; i++ {
				for _, task := range zoo {
					budget := task.SubproblemBudget
					if budget == 0 {
						budget = 1_000_000
					}
					_, ok, err := task.Problem.KThickConnected(1, budget)
					if err != nil {
						b.Fatal(err)
					}
					if ok != task.Solvable1Resilient {
						b.Fatalf("%s: verdict %v, want %v", task.Problem.Name, ok, task.Solvable1Resilient)
					}
				}
			}
		})
	}
}

// BenchmarkE8_DiameterRecurrence — Lemma 7.6 / Theorem 7.7: measured
// s-diameter growth against the recurrence bound. Whole-graph row: layer
// state sets and every S(x) are read off the CSR arrays of one
// materialized graph; the similarity graphs are built with the bucketed
// construction.
func BenchmarkE8_DiameterRecurrence(b *testing.B) {
	const n, t, depth = 3, 2, 2
	p := protocols.FullInfo{}
	m := layers.SyncSt(p, n, t)
	g, err := layers.ExploreIDCtx(nil, m, depth, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	layerStates := make([][]layers.State, depth+1)
	for d := 0; d <= depth; d++ {
		for _, u := range g.Layer(d) {
			layerStates[d] = append(layerStates[d], g.States[u])
		}
	}
	b.ResetTimer()
	var measured int
	for i := 0; i < b.N; i++ {
		dPrev, _ := valence.SetSDiameter(layerStates[0])
		for d := 1; d <= depth; d++ {
			dY := 0
			for _, u := range g.Layer(d - 1) {
				// S(x) read off the CSR out-edges, deduplicated by node id.
				seen := make(map[uint32]bool)
				var states []layers.State
				for e := g.EdgeStart[u]; e < g.EdgeStart[u+1]; e++ {
					v := g.EdgeTo[e]
					if !seen[v] {
						seen[v] = true
						states = append(states, g.States[v])
					}
				}
				if ld, _ := valence.SetSDiameter(states); ld > dY {
					dY = ld
				}
			}
			bound := dPrev*dY + dPrev + dY
			dCur, _ := valence.SetSDiameter(layerStates[d])
			if dCur > bound {
				b.Fatalf("depth %d: measured %d > bound %d", d, dCur, bound)
			}
			if paperBound := decision.DiameterBound(dPrev, n, 1); bound > 0 && paperBound < 0 {
				b.Fatal("unreachable")
			}
			dPrev = dCur
			measured = dCur
		}
	}
	b.ReportMetric(float64(measured), "s-diameter")
	b.ReportMetric(float64(g.Len()), "states")
}

// BenchmarkE9_Extensions — wasted faults, early decision, IIS subdivision.
func BenchmarkE9_Extensions(b *testing.B) {
	b.Run("wasted-faults/n=4/t=2/c=2", func(b *testing.B) {
		const n, tt, c, rounds = 4, 2, 2, 3
		m := layers.SyncStMulti(protocols.FloodSet{Rounds: rounds}, n, tt, c)
		g, err := layers.ExploreIDCtx(nil, m, rounds, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := benchField(b, g)
			biv := 0
			for u := 0; u < g.Len(); u++ {
				if f.Bivalent(uint32(u)) {
					biv++
				}
			}
			if biv == 0 {
				b.Fatal("no bivalent states")
			}
		}
		b.ReportMetric(float64(g.Len()), "states")
	})
	b.Run("early-decision/n=4/t=2", func(b *testing.B) {
		m := layers.SyncSt(layers.EarlyFloodSet{MaxRounds: 3}, 4, 2)
		g, err := layers.ExploreIDCtx(nil, m, 3, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var explored int
		for i := 0; i < b.N; i++ {
			w, err := layers.CertifyGraphCtx(nil, g, 0)
			if err != nil || w.Kind != layers.OK {
				b.Fatal(err, w.Kind)
			}
			explored = w.Explored
		}
		b.ReportMetric(float64(explored), "states")
	})
	b.Run("iis-subdivision/n=3", func(b *testing.B) {
		m := layers.IteratedImmediateSnapshot(layers.SMFullInfo{}, 3)
		x := m.Initial([]int{0, 1, 1})
		for i := 0; i < b.N; i++ {
			st := m.Stats(x)
			if st.TopSimplexes != 13 {
				b.Fatal("subdivision wrong")
			}
		}
	})
}

// BenchmarkExplore — the exploration front-end itself over the sharded
// successor cache (grid: models × {cold, warm} × worker counts). cold
// rows build a fresh model, and with it a fresh cache, every iteration and
// pay first-sight interning and enumeration; warm rows re-explore one
// explored model to the same depth, which takes the graph its cache
// remembers: seeding the roots and slicing the layers, with no layer
// work, whatever the worker count. Worker counts shard the frontier
// expansion; on a single-CPU host the w>1 rows only add scheduling
// overhead. The three cold-only rows are sized where the
// synchronous models' memos matter: syncst/n=7 is the sync_lowerbound
// coldbench model, where FloodSet's set-keyed Deliver memo (proto.SetInbox)
// runs Deliver 28 times for 3,736 distinct per-sender inboxes; mobile/n=7
// is the mobile_refute coldbench model, where 12,100 edges form only 494
// distinct (source, successor) pairs, so the round memo's reuse of an
// unchanged successor carries it; and syncst-fullinfo is the guard row:
// FullInfo keys the memo by per-sender message ids and every delivery is
// new, so the model-wide Deliver memo is pure overhead there.
func BenchmarkExplore(b *testing.B) {
	grid := []struct {
		name     string
		mk       func() layers.Model
		depth    int
		coldOnly bool
	}{
		{"mobile/n=4", func() layers.Model { return layers.MobileS1(protocols.FloodSet{Rounds: 2}, 4) }, 2, false},
		{"syncst/n=4/t=2", func() layers.Model { return layers.SyncSt(protocols.FloodSet{Rounds: 3}, 4, 2) }, 3, false},
		{"shmem/n=3", func() layers.Model { return layers.SharedMemory(protocols.SMVote{Phases: 2}, 3) }, 2, false},
		{"syncst/n=7/t=2", func() layers.Model { return layers.SyncSt(protocols.FloodSet{Rounds: 3}, 7, 2) }, 3, true},
		{"mobile/n=7", func() layers.Model { return layers.MobileS1(protocols.FloodSet{Rounds: 3}, 7) }, 3, true},
		{"syncst-fullinfo/n=5/t=2", func() layers.Model { return layers.SyncSt(protocols.FullInfo{}, 5, 2) }, 3, true},
	}
	var workers []int
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		dup := false
		for _, seen := range workers {
			dup = dup || seen == w
		}
		if !dup {
			workers = append(workers, w)
		}
	}
	for _, tc := range grid {
		for _, mode := range []string{"cold", "warm"} {
			if mode == "warm" && tc.coldOnly {
				continue
			}
			for _, w := range workers {
				b.Run(fmt.Sprintf("%s/%s/w=%d", tc.name, mode, w), func(b *testing.B) {
					var warm layers.Model
					if mode == "warm" {
						warm = tc.mk()
						if _, err := layers.ExploreIDCtx(nil, warm, tc.depth, 0, w); err != nil {
							b.Fatal(err)
						}
					}
					var g *layers.IDGraph
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m := warm
						if m == nil {
							m = tc.mk()
						}
						var err error
						g, err = layers.ExploreIDCtx(nil, m, tc.depth, 0, w)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(g.Len()), "states")
					b.ReportMetric(float64(g.NumEdges()), "edges")
				})
			}
		}
	}
}

// BenchmarkResilience — overhead rows for the resilient execution layer.
// checkpoint/write and checkpoint/load price the binary container on an
// interrupted E1-sized exploration (n=5, cut at the layer-1 boundary);
// cancel-poll compares the E1/n=5 analysis body under a live cancellation
// context against the bare engines — the polled checks are one atomic load
// per layer/shard, so the ctx row must stay within ~2% of base.
func BenchmarkResilience(b *testing.B) {
	interrupted := func(b *testing.B) error {
		b.Helper()
		m := layers.MobileS1(protocols.FloodSet{Rounds: 2}, 5)
		chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
		_, perr := layers.ExploreIDCtx(nil, m, 2, 0, 1)
		chaos.Disarm()
		if perr == nil {
			b.Fatal("chaos cut did not interrupt the exploration")
		}
		return perr
	}
	b.Run("checkpoint/write", func(b *testing.B) {
		ck, ok := resilient.CheckpointFrom(interrupted(b))
		if !ok {
			b.Fatal("interrupted exploration carried no checkpoint")
		}
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			sections, err := ck.Sections()
			if err != nil {
				b.Fatal(err)
			}
			if err := resilient.WriteSections(&buf, sections); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
		b.ReportMetric(float64(buf.Len()), "ckpt-bytes")
	})
	b.Run("checkpoint/load", func(b *testing.B) {
		ck, ok := resilient.CheckpointFrom(interrupted(b))
		if !ok {
			b.Fatal("interrupted exploration carried no checkpoint")
		}
		sections, err := ck.Sections()
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := resilient.WriteSections(&buf, sections); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.SetBytes(int64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			back, err := resilient.ReadSections(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			var explore []byte
			for _, s := range back {
				if s.Tag == resilient.TagExplore {
					explore = s.Data
				}
			}
			if _, err := core.DecodeExploreCheckpoint(explore); err != nil {
				b.Fatal(err)
			}
		}
	})
	m := layers.MobileS1(protocols.FloodSet{Rounds: 2}, 5)
	g, err := layers.ExploreIDCtx(nil, m, 2, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	e1Body := func(b *testing.B, ctx *layers.Ctx) {
		inits := m.Inits()
		if _, conn := valence.SetSDiameter(inits); !conn {
			b.Fatal("Con_0 not similarity connected")
		}
		f, err := layers.NewFieldCtx(ctx, g)
		if err != nil {
			b.Fatal(err)
		}
		found := false
		for _, u := range g.Layer(0) {
			if f.Bivalent(u) {
				found = true
				break
			}
		}
		if !found {
			b.Fatal("no bivalent initial state")
		}
	}
	b.Run("cancel-poll/e1/n=5/base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e1Body(b, nil)
		}
	})
	b.Run("cancel-poll/e1/n=5/ctx", func(b *testing.B) {
		ctx, cancel := layers.WithCancel()
		defer cancel()
		for i := 0; i < b.N; i++ {
			e1Body(b, ctx)
		}
	})
}

// BenchmarkE10_TaskCertifier — the k-set boundary through CertifyTask.
func BenchmarkE10_TaskCertifier(b *testing.B) {
	const n = 3
	m := layers.MobileS1(layers.FloodSet{Rounds: 1}, n)
	var inits []layers.State
	for a := 0; a < 27; a++ {
		v := a
		in := make([]int, n)
		for i := 0; i < n; i++ {
			in[i] = v % 3
			v /= 3
		}
		inits = append(inits, m.Initial(in))
	}
	delta := tasks.KSetAgreement(n, 2).Problem.Delta
	b.ResetTimer()
	var explored int
	for i := 0; i < b.N; i++ {
		w, err := layers.CertifyTask(m, inits, delta, 1, 0)
		if err != nil || w.Kind != layers.TaskOK {
			b.Fatal(err, w.Kind)
		}
		explored = w.Explored
	}
	b.ReportMetric(float64(explored), "states")
}

// BenchmarkE11_CommonKnowledge — the Dwork–Moses connection: CK-class
// computation at the decision round plus the common-knowledge check.
func BenchmarkE11_CommonKnowledge(b *testing.B) {
	const n, tt = 3, 1
	rounds := tt + 1
	m := layers.SyncSt(layers.FloodSet{Rounds: rounds}, n, tt)
	g, err := layers.ExploreIDCtx(nil, m, rounds, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	states := make([]layers.State, 0, len(g.Layer(rounds)))
	for _, u := range g.Layer(rounds) {
		states = append(states, g.States[u])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classes, err := layers.NewKnowledgeClassesLayer(nil, g, rounds)
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range states {
			v := -1
			for p := 0; p < n; p++ {
				if x.FailedAt(p) {
					continue
				}
				if got, ok := x.Decided(p); ok {
					v = got
					break
				}
			}
			if v < 0 || !classes.CommonKnowledge(x.Key(), layers.DecidedValueFact(v)) {
				b.Fatal("decision without common knowledge")
			}
		}
	}
	b.ReportMetric(float64(len(states)), "states")
}

// BenchmarkObsPhases — instrumented engine rows: the E1/E5-shaped explore
// and certify bodies re-run with a live Metrics recorder and a tracer over
// it, as cli.ObsFlags installs them, reporting the per-iteration latency
// tail (p50/p99 straight from the span.explore and span.certify
// histograms) alongside ns/op. The explore row builds a fresh model every
// iteration, since a model's second exploration takes the graph its cache
// remembers. The uninstrumented E-rows above stay the disabled-overhead
// baseline.
func BenchmarkObsPhases(b *testing.B) {
	enable := func() *obs.Metrics {
		met := obs.NewMetrics()
		obs.EnableTrace(obs.NewTracer(met, nil))
		obs.Enable(met)
		return met
	}
	disable := func() {
		obs.DisableTrace()
		obs.Disable()
	}
	b.Run("explore/n=5", func(b *testing.B) {
		met := enable()
		defer disable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := layers.MobileS1(protocols.FloodSet{Rounds: 2}, 5)
			if _, err := layers.ExploreIDCtx(nil, m, 2, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if h := met.Timer("span.explore"); h != nil {
			b.ReportMetric(float64(h.Quantile(0.50)), "p50_ns")
			b.ReportMetric(float64(h.Quantile(0.99)), "p99_ns")
		}
	})
	b.Run("certify/n=4/t=2", func(b *testing.B) {
		p := protocols.FloodSet{Rounds: 3}
		m := layers.SyncSt(p, 4, 2)
		g, err := layers.ExploreIDCtx(nil, m, 3, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		met := enable()
		defer disable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w, err := layers.CertifyGraphCtx(nil, g, 0)
			if err != nil {
				b.Fatal(err)
			}
			if w.Kind != layers.OK {
				b.Fatalf("FloodSet(t+1) refuted: %v", w.Kind)
			}
		}
		b.StopTimer()
		if h := met.Timer("span.certify"); h != nil {
			b.ReportMetric(float64(h.Quantile(0.50)), "p50_ns")
			b.ReportMetric(float64(h.Quantile(0.99)), "p99_ns")
		}
	})
}
