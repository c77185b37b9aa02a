package main

import (
	"errors"
	"sort"
)

// errNoSamples is returned when a statistic is asked of an empty sample.
var errNoSamples = errors.New("no samples")

// median returns the median of xs, the mean of the two middle values when
// len(xs) is even. xs is not modified.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errNoSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid], nil
	}
	return (s[mid-1] + s[mid]) / 2, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// stream is the harness's seed stream: splitmix64, the same generator the
// engines' chaos plans use, so a run is reproduced by its seed alone.
type stream uint64

func (s *stream) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// perm returns a seeded Fisher–Yates permutation of 0..n-1.
func (s *stream) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
