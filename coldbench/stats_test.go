package main

import (
	"errors"
	"reflect"
	"sort"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{0.9, 0.1, 0.5, 0.7, 0.3, 100}, 0.6},
	} {
		in := append([]float64(nil), c.xs...)
		got, err := median(c.xs)
		if err != nil || got != c.want {
			t.Errorf("median(%v) = %v, %v; want %v", in, got, err, c.want)
		}
		if !reflect.DeepEqual(c.xs, in) {
			t.Errorf("median reordered its input: %v, was %v", c.xs, in)
		}
	}
	if _, err := median(nil); !errors.Is(err, errNoSamples) {
		t.Errorf("median(nil) error = %v, want errNoSamples", err)
	}
}

func TestStreamIsSeeded(t *testing.T) {
	a, b, c := stream(42), stream(42), stream(43)
	pa, pb, pc := a.perm(9), b.perm(9), c.perm(9)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("equal seeds gave %v and %v", pa, pb)
	}
	if reflect.DeepEqual(pa, pc) {
		t.Errorf("seeds 42 and 43 gave the same permutation %v", pa)
	}
	sorted := append([]int(nil), pa...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("perm(9) = %v is not a permutation", pa)
		}
	}
}

func TestSummarizeCountsFailuresAndMedians(t *testing.T) {
	var samples []sample
	setup, ref := 0.001, 0.5
	for i := 0; i < minSamples; i++ {
		samples = append(samples, sample{verdictS: float64(i + 1), refS: ref, cpuS: 2, refCPUS: 0.5, rssMiB: 10, setupS: setup})
	}
	if !enough(samples, false) {
		t.Fatal("enough = false with the minimum sample count")
	}
	if enough(samples[1:], false) {
		t.Error("enough = true below the minimum sample count")
	}
	res := summarize(samples, false)
	if !res.Correct || res.Attempted != minSamples || res.Failed != 0 {
		t.Fatalf("summarize = %+v", res)
	}
	want := map[string]float64{
		"verdict_ref_p50": 11,
		"cpu_ref_p50":     4,
		"max_rss_mb_p50":  10,
		"setup_s":         setup / ref * refHostS,
	}
	for name, v := range want {
		if got := res.Metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}

	// A failed sample is attempted, counted, and left out of the medians.
	failed := append(samples, sample{err: errors.New("wrong verdict"), verdictS: 1e9})
	res = summarize(failed, false)
	if res.Correct || res.Failed != 1 || res.Attempted != len(failed) {
		t.Errorf("with one failure: correct %v, failed %d, attempted %d", res.Correct, res.Failed, res.Attempted)
	}
	if got := res.Metrics["verdict_ref_p50"].Value; got != 11 {
		t.Errorf("failed sample moved verdict_ref_p50 to %v", got)
	}

	// A metric without samples is refused, and the run is not correct.
	res = summarize(failed[len(failed)-1:], false)
	if _, ok := res.Metrics["verdict_ref_p50"]; ok || res.Correct {
		t.Errorf("no good samples: metrics %v, correct %v", res.Metrics, res.Correct)
	}
}
