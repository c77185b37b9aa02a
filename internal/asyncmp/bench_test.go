package asyncmp_test

import (
	"fmt"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/protocols"
)

// BenchmarkSuccessors enumerates the raw (uncached) successors of an
// initial state under each layering: one phase memo per call.
func BenchmarkSuccessors(b *testing.B) {
	p := protocols.MPFlood{Phases: 2}
	for _, n := range []int{3, 4} {
		for _, c := range []struct {
			name string
			m    interface {
				core.Model
				Initial([]int) *asyncmp.State
			}
		}{
			{"Sper", asyncmp.New(p, n)},
			{"Ssync", asyncmp.NewSynchronic(p, n)},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				raw := core.CacheOf(c.m).Uncached()
				x := c.m.Initial(make([]int, n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := raw.Successors(x); len(got) == 0 {
						b.Fatal("no successors")
					}
				}
			})
		}
	}
}

func BenchmarkSequentialLayer(b *testing.B) {
	const n = 4
	m := asyncmp.New(protocols.MPFullInfo{}, n)
	x := m.Initial(make([]int, n))
	order := []int{0, 1, 2, 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Sequential(x, order)
	}
}
