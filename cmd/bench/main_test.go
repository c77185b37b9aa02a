package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		want    []Result
		wantErr bool
	}{
		{
			name: "standard units and states",
			in:   "BenchmarkE1/n=5-8  142  8000000 ns/op  12 B/op  3 allocs/op  40 states\n",
			want: []Result{{Name: "BenchmarkE1/n=5", Package: "p", Procs: 8, Iterations: 142,
				NsPerOp: 8e6, BytesPerOp: 12, AllocsPerOp: 3, States: 40, StatesPerSec: 5000}},
		},
		{
			name: "extra units",
			in:   "BenchmarkE2  10  500 ns/op  93.5 cache-hit-%  7 edges\n",
			want: []Result{{Name: "BenchmarkE2", Package: "p", Procs: 1, Iterations: 10,
				NsPerOp: 500, Extra: map[string]float64{"cache-hit-%": 93.5, "edges": 7}}},
		},
		{
			name: "non-benchmark and short lines skipped",
			in: "goos: linux\nPASS\nBenchmarkShort 1 2\nok  \trepro\t1.2s\n" +
				"BenchmarkNoIters-2  lots  5 ns/op\n",
			want: nil,
		},
		{
			name: "odd trailing field ignored",
			in:   "BenchmarkOdd-2  3  9 ns/op  dangling\n",
			want: []Result{{Name: "BenchmarkOdd", Package: "p", Procs: 2, Iterations: 3, NsPerOp: 9}},
		},
		{
			name:    "malformed value",
			in:      "BenchmarkBad-2  3  fast ns/op\n",
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBench(bytes.NewBufferString(tc.in), "p")
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if !tc.wantErr && !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestTrimProcSuffix(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX/w=4-2", "BenchmarkX/w=4", 2},
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkX/early-decision/n=4", "BenchmarkX/early-decision/n=4", 1},
		{"BenchmarkX-0", "BenchmarkX-0", 1},
	} {
		name, procs := trimProcSuffix(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("trimProcSuffix(%q) = (%q, %d), want (%q, %d)", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

// TestGeomeanSpeedupPairsByProcs: under -cpu 1,2 the same benchmark name
// appears once per procs setting, and each row pairs only with its own
// setting in the baseline.
func TestGeomeanSpeedupPairsByProcs(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", Package: "p", Procs: 1, NsPerOp: 400},
		{Name: "BenchmarkA", Package: "p", Procs: 2, NsPerOp: 100},
		{Name: "BenchmarkGone", Package: "p", Procs: 1, NsPerOp: 7},
	}}
	report := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", Package: "p", Procs: 1, NsPerOp: 100}, // 4x
		{Name: "BenchmarkA", Package: "p", Procs: 2, NsPerOp: 100}, // 1x
		{Name: "BenchmarkA", Package: "q", Procs: 1, NsPerOp: 1},   // other package: unpaired
	}}
	gm, n := geomeanSpeedup(base, report)
	if n != 2 || math.Abs(gm-2) > 1e-12 {
		t.Fatalf("geomeanSpeedup = (%v, %d), want (2, 2)", gm, n)
	}
	if gm, n := geomeanSpeedup(&Report{}, report); gm != 0 || n != 0 {
		t.Fatalf("no shared rows: (%v, %d), want (0, 0)", gm, n)
	}
}

// TestPrintDeltaDeterministic: dropped rows come out sorted, the procs
// suffix distinguishes rows of one name, and repeated calls print the same
// bytes.
func TestPrintDeltaDeterministic(t *testing.T) {
	base := &Report{Benchtime: "1x", Benchmarks: []Result{
		{Name: "BenchmarkZ", Package: "p", Procs: 1, NsPerOp: 5},
		{Name: "BenchmarkA", Package: "p", Procs: 2, NsPerOp: 200, StatesPerSec: 10,
			Extra: map[string]float64{"cache-hit-%": 50, "old-only": 1}},
		{Name: "BenchmarkA", Package: "p", Procs: 1, NsPerOp: 9},
		{Name: "BenchmarkM", Package: "p", Procs: 4, NsPerOp: 5},
		{Name: "BenchmarkB", Package: "a", Procs: 1, NsPerOp: 5},
	}}
	report := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", Package: "p", Procs: 2, NsPerOp: 100, StatesPerSec: 20,
			Extra: map[string]float64{"cache-hit-%": 75}},
		{Name: "BenchmarkNew", Package: "p", Procs: 1, NsPerOp: 3},
	}}
	var first bytes.Buffer
	printDelta(&first, "base.json", base, report)
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		printDelta(&again, "base.json", base, report)
		if again.String() != first.String() {
			t.Fatalf("printDelta output changed between calls:\n%s\nvs\n%s", first.String(), again.String())
		}
	}
	out := first.String()
	for _, want := range []string{
		"delta vs base.json (1x):",
		"BenchmarkA-2",
		"2.00x",
		"10 -> 20 (2.00x)",
		"cache-hit-%: 50 -> 75",
		"(new)",
		"geomean speedup: 2.00x over 1 shared benchmarks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "old-only") {
		t.Error("a metric on one side only must not be printed")
	}
	var dropped []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, "(dropped)") {
			dropped = append(dropped, strings.Fields(line)[0])
		}
	}
	want := []string{"BenchmarkB", "BenchmarkA", "BenchmarkM-4", "BenchmarkZ"}
	if !reflect.DeepEqual(dropped, want) {
		t.Fatalf("dropped rows %v, want %v", dropped, want)
	}
}
