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

func BenchmarkOracleValences(b *testing.B) {
	for _, cfg := range []struct{ n, h int }{{3, 2}, {3, 3}, {4, 2}} {
		b.Run(fmt.Sprintf("mobile/n=%d/h=%d", cfg.n, cfg.h), func(b *testing.B) {
			m := mobile.New(protocols.FloodSet{Rounds: cfg.h}, cfg.n)
			x := m.Initial(mixedInputs(cfg.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := valence.NewOracle(m)
				if o.Valences(x, cfg.h) != valence.V0|valence.V1 {
					b.Fatal("expected bivalent")
				}
			}
		})
	}
}

// naiveValences computes the horizon-bounded valence mask of x without
// memoization, by plain DFS: the ablation baseline for the Oracle's memo
// table. The two must agree everywhere, and the memoized oracle should
// dominate as soon as layers share successor states.
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

// BenchmarkAblationMemoization quantifies the DESIGN.md ablation: the
// memoized oracle vs. the naive DFS on the same query.
func BenchmarkAblationMemoization(b *testing.B) {
	const n, h = 3, 3
	m := mobile.New(protocols.FloodSet{Rounds: h}, n)
	x := m.Initial(mixedInputs(n))
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := valence.NewOracle(m)
			o.Valences(x, h)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveValences(m, x, h)
		}
	})
}

func TestNaiveMatchesOracle(t *testing.T) {
	const n, rounds = 3, 2
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	g, err := core.ExploreID(m, rounds, 0)
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

func BenchmarkAnalyzeLayer(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("syncmp/n=%d", n), func(b *testing.B) {
			m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, n, 1)
			x := m.Initial(mixedInputs(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := valence.NewOracle(m)
				valence.AnalyzeLayer(m, o, x, 2)
			}
		})
	}
}

func BenchmarkCertify(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 2}, {5, 1}} {
		b.Run(fmt.Sprintf("floodset/n=%d/t=%d", cfg.n, cfg.t), func(b *testing.B) {
			m := syncmp.NewSt(protocols.FloodSet{Rounds: cfg.t + 1}, cfg.n, cfg.t)
			b.ReportAllocs()
			var explored int
			for i := 0; i < b.N; i++ {
				w, err := valence.Certify(m, cfg.t+1, 0)
				if err != nil || w.Kind != valence.OK {
					b.Fatal(err, w.Kind)
				}
				explored = w.Explored
			}
			b.ReportMetric(float64(explored), "states")
		})
	}
}

// BenchmarkCertifyGraph is the sweep-based certifier over a pre-built CSR
// graph — the steady-state cost of re-certifying once the state graph is
// materialized (the recursive rows above pay successor enumeration and
// string-key memo lookups on every run). n=6 was impractical before.
func BenchmarkCertifyGraph(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 2}, {5, 1}, {6, 1}} {
		b.Run(fmt.Sprintf("floodset/n=%d/t=%d", cfg.n, cfg.t), func(b *testing.B) {
			m := syncmp.NewSt(protocols.FloodSet{Rounds: cfg.t + 1}, cfg.n, cfg.t)
			g, err := core.ExploreIDParallel(m, cfg.t+1, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var explored int
			for i := 0; i < b.N; i++ {
				w, err := valence.CertifyGraph(g, 0)
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
			g, err := core.ExploreIDParallel(m, cfg.t+1, 0, 0)
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

func BenchmarkBivalentChain(b *testing.B) {
	const n, rounds = 3, 4
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := valence.NewOracle(m)
		ch, err := valence.BivalentChain(m, o, valence.DecreasingHorizon(rounds, 1), rounds-1)
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
