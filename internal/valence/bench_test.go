package valence_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// naiveValences computes the horizon-bounded valence mask of x without
// memoization, by plain DFS: the reference for the reference Oracle's memo
// table and bivalence shortcut, which must agree with it everywhere.
func naiveValences(succ core.Successor, x core.State, horizon int) uint8 {
	mask := uint8(core.DecidedValues(x) & 0b11)
	if mask != valence.V0|valence.V1 && horizon > 0 {
		for _, s := range succ.Successors(x) {
			mask |= naiveValences(succ, s.State, horizon-1)
			if mask == valence.V0|valence.V1 {
				break
			}
		}
	}
	return mask
}

func TestNaiveMatchesOracle(t *testing.T) {
	const n, rounds = 3, 2
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := valence.NewOracle(m)
	for _, x := range g.States {
		for h := 0; h <= rounds; h++ {
			if got, want := naiveValences(m, x, h), o.Valences(x, h); got != want {
				t.Fatalf("naive %02b != memoized %02b at horizon %d", got, want, h)
			}
		}
	}
}

// BenchmarkAnalyzeNode is one layer report from a cold start: explore to
// the horizon, sweep the field, and analyze S(x) of a mixed-input state.
func BenchmarkAnalyzeNode(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("syncmp/n=%d", n), func(b *testing.B) {
			m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, n, 1)
			key := m.Initial(mixedInputs(n)).Key()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := core.ExploreIDCtx(nil, m, 3, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				u, _ := g.NodeByKey(key)
				newField(b, g).AnalyzeNode(u)
			}
		})
	}
}

// BenchmarkCertify is the whole pipeline Certify runs on each call:
// exploration over the model's warm successor cache, then the certifier.
func BenchmarkCertify(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 2}, {5, 1}} {
		b.Run(fmt.Sprintf("floodset/n=%d/t=%d", cfg.n, cfg.t), func(b *testing.B) {
			m := syncmp.NewSt(protocols.FloodSet{Rounds: cfg.t + 1}, cfg.n, cfg.t)
			b.ReportAllocs()
			var explored int
			for i := 0; i < b.N; i++ {
				w, err := valence.Certify(nil, m, cfg.t+1, 0)
				if err != nil || w.Kind != valence.OK {
					b.Fatal(err, w.Kind)
				}
				explored = w.Explored
			}
			b.ReportMetric(float64(explored), "states")
		})
	}
}

// BenchmarkCertifyGraph is the certifier alone over a pre-built CSR graph
// — the steady-state cost of re-certifying once the state graph is
// materialized (the rows above also re-explore on every run).
func BenchmarkCertifyGraph(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 2}, {5, 1}, {6, 1}} {
		b.Run(fmt.Sprintf("floodset/n=%d/t=%d", cfg.n, cfg.t), func(b *testing.B) {
			m := syncmp.NewSt(protocols.FloodSet{Rounds: cfg.t + 1}, cfg.n, cfg.t)
			g, err := core.ExploreIDCtx(nil, m, cfg.t+1, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var explored int
			for i := 0; i < b.N; i++ {
				w, err := valence.CertifyGraph(nil, g, 0)
				if err != nil || w.Kind != valence.OK {
					b.Fatal(err, w.Kind)
				}
				explored = w.Explored
			}
			b.ReportMetric(float64(explored), "states")
		})
	}
}

// BenchmarkField is the whole-graph valence sweep itself: every node's
// mask in one pass over the CSR arrays.
func BenchmarkField(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{4, 2}, {6, 1}} {
		b.Run(fmt.Sprintf("floodset/n=%d/t=%d", cfg.n, cfg.t), func(b *testing.B) {
			m := syncmp.NewSt(protocols.FloodSet{Rounds: cfg.t + 1}, cfg.n, cfg.t)
			g, err := core.ExploreIDCtx(nil, m, cfg.t+1, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := newField(b, g)
				if f.Len() != g.Len() {
					b.Fatal("field size mismatch")
				}
			}
			b.ReportMetric(float64(g.Len()), "states")
		})
	}
}

// BenchmarkBivalentChain is the Theorem 4.2 chain from a cold start:
// explore to the bound, sweep the field, and walk the chain.
func BenchmarkBivalentChain(b *testing.B) {
	const n, rounds = 3, 4
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		ch, err := newField(b, g).BivalentChain(rounds - 1)
		if err != nil || ch.Stuck != nil {
			b.Fatal("chain failed")
		}
	}
}

// mixedInputs has a single 0-holder: the bivalence-richest input for
// min-flooding protocols (silencing process 0 makes 1 reachable; the
// failure-free run decides 0).
func mixedInputs(n int) []int {
	in := make([]int, n)
	for i := 1; i < n; i++ {
		in[i] = 1
	}
	return in
}
