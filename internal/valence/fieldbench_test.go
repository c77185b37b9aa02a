package valence_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// BenchmarkFieldSweep is the kernel-level micro-benchmark grid for the
// valence field: the scalar reference engine (test code) vs the bit-plane
// sweep, graded vs fixpoint-fallback graphs. Every row reports states/sec
// and allocs/op, so a kernel regression shows up here without
// running the full cmd/bench suite (`make benchfield` runs the grid in
// -benchtime=1x smoke mode on every tier1 pass).
func BenchmarkFieldSweep(b *testing.B) {
	graded := func(n, t int) *core.IDGraph {
		m := syncmp.NewSt(protocols.FloodSet{Rounds: t + 1}, n, t)
		g, err := core.ExploreIDParallel(m, t+1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	fixpoint := func(k int) *core.IDGraph {
		g, err := core.ExploreID(chainModel{k: k}, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if g.Graded() {
			b.Fatal("fixpoint fixture is graded")
		}
		return g
	}
	perSec := func(b *testing.B, g *core.IDGraph) {
		b.ReportMetric(float64(g.Len())*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
	}

	for _, cfg := range []struct{ n, t int }{{4, 2}, {6, 1}} {
		g := graded(cfg.n, cfg.t)
		name := fmt.Sprintf("graded/n=%d/t=%d", cfg.n, cfg.t)
		b.Run(name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(scalarMasks(g, decidedSeed)) != g.Len() {
					b.Fatal("size mismatch")
				}
			}
			perSec(b, g)
		})
		b.Run(name+"/planes-serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if newField(b, g).Len() != g.Len() {
					b.Fatal("size mismatch")
				}
			}
			perSec(b, g)
		})
	}

	g := fixpoint(300)
	b.Run("fixpoint/chain=300/scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(scalarMasks(g, decidedSeed)) != g.Len() {
				b.Fatal("size mismatch")
			}
		}
		perSec(b, g)
	})
	b.Run("fixpoint/chain=300/planes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if newField(b, g).Len() != g.Len() {
				b.Fatal("size mismatch")
			}
		}
		perSec(b, g)
	})
}
