// Command bench runs the repository's experiment benchmarks (E1–E11 and
// the exploration grid in the root package, plus the certifier and field
// benchmarks in internal/valence) through `go test -bench` and distills
// the results into a machine-readable JSON file — ns/op, B/op, allocs/op,
// and, for benchmarks that report a "states" metric, the derived
// states/sec throughput. Rows are keyed by (package, name, GOMAXPROCS), so
// a -cpu list passed through GOFLAGS keeps one row per setting.
//
// Usage:
//
//	bench                       # writes BENCH_1.json in the cwd
//	bench -out results.json -benchtime 2x
//	GOFLAGS=-cpu=1,2 bench      # one row per benchmark and GOMAXPROCS
//	bench -out BENCH_2.json -baseline BENCH_1.json   # print deltas too
//	bench -profiledir profiles  # also write cpu/mem profiles per suite
//	bench -deadline 5m          # stop between suites when the budget elapses
//
// SIGINT (or an elapsed -deadline) stops the run at the next suite
// boundary; the suites measured so far are still written to -out and the
// exit is nonzero. Benchmarks run in child `go test` processes, so
// -checkpoint/-resume snapshot nothing here — rerun the remaining suites
// instead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cli"
)

// Result is one benchmark measurement.
type Result struct {
	Name    string `json:"name"`
	Package string `json:"package"`
	// Procs is the GOMAXPROCS the row ran at: the -N suffix go test
	// appends to the name, 1 when it appends none.
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// States is the benchmark's reported search-effort metric (states
	// explored per op), when it reports one.
	States float64 `json:"states,omitempty"`
	// StatesPerSec = States / (NsPerOp / 1e9).
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
	// Extra holds any other custom metrics (unit -> value).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Benchtime  string `json:"benchtime"`
	// Baseline and GeomeanSpeedup are set when -baseline was given: the
	// baseline file name and the geometric mean of old/new ns/op across
	// every benchmark present in both reports.
	Baseline       string   `json:"baseline,omitempty"`
	GeomeanSpeedup float64  `json:"geomean_speedup,omitempty"`
	Benchmarks     []Result `json:"benchmarks"`
}

// rowKey identifies one benchmark row across reports.
type rowKey struct {
	pkg, name string
	procs     int
}

func keyOf(r Result) rowKey { return rowKey{r.Package, r.Name, r.Procs} }

// label is the row's name as go test prints it: with the -N suffix unless
// it ran at GOMAXPROCS 1.
func label(r Result) string {
	if r.Procs > 1 {
		return fmt.Sprintf("%s-%d", r.Name, r.Procs)
	}
	return r.Name
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		out        = fs.String("out", "BENCH_1.json", "output JSON path")
		benchtime  = fs.String("benchtime", "1s", "go test -benchtime value")
		baseline   = fs.String("baseline", "", "baseline JSON to print a side-by-side delta against")
		verbose    = fs.Bool("v", false, "echo raw go test output")
		profiledir = fs.String("profiledir", "", "write per-suite cpu/mem profiles and test binaries into `dir`")
	)
	obsFlags := cli.RegisterObs(fs)
	resFlags := cli.RegisterResilience(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer stopObs()
	ctx, stopRes, err := resFlags.Start()
	if err != nil {
		return err
	}
	defer stopRes()
	if *profiledir != "" {
		if err := os.MkdirAll(*profiledir, 0o755); err != nil {
			return err
		}
	}

	suites := []struct {
		pkg     string
		pattern string
	}{
		{"repro", "BenchmarkE[0-9]"},
		{"repro", "BenchmarkExplore"},
		{"repro", "BenchmarkResilience"},
		{"repro", "BenchmarkObsPhases"},
		{"repro/internal/valence", "BenchmarkCertify"},
		{"repro/internal/valence", "BenchmarkFieldSweep"},
		{"repro/internal/obs", "BenchmarkObs"},
	}
	report := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  *benchtime,
	}
	var interrupted error
	for _, s := range suites {
		if cerr := ctx.Err(); cerr != nil {
			interrupted = fmt.Errorf("bench: run interrupted before %s (%s): %w", s.pkg, s.pattern, cerr)
			break
		}
		testArgs := []string{"test", "-run", "^$",
			"-bench", s.pattern, "-benchmem", "-benchtime", *benchtime}
		if *profiledir != "" {
			// Profiling keeps the test binary next to the profiles so
			// `go tool pprof <binary> <profile>` resolves symbols.
			slug := strings.ReplaceAll(strings.TrimPrefix(s.pkg, "repro"), "/", "_")
			if slug == "" {
				slug = "_root"
			}
			testArgs = append(testArgs,
				"-cpuprofile", filepath.Join(*profiledir, "cpu"+slug+".prof"),
				"-memprofile", filepath.Join(*profiledir, "mem"+slug+".prof"),
				"-o", filepath.Join(*profiledir, "bench"+slug+".test"))
		}
		testArgs = append(testArgs, s.pkg)
		cmd := exec.Command("go", testArgs...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", s.pkg, err)
		}
		if *verbose {
			os.Stderr.Write(buf.Bytes())
		}
		results, err := parseBench(&buf, s.pkg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.pkg, err)
		}
		report.Benchmarks = append(report.Benchmarks, results...)
	}

	// The geomean goes into the JSON document, so the baseline is folded
	// in before the file is written.
	var base *Report
	if *baseline != "" {
		base, err = readReport(*baseline)
		if err != nil {
			return fmt.Errorf("baseline delta: %w", err)
		}
		report.Baseline = filepath.Base(*baseline)
		report.GeomeanSpeedup, _ = geomeanSpeedup(base, &report)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: %d benchmarks -> %s\n", len(report.Benchmarks), *out)
	if base != nil {
		printDelta(os.Stdout, *baseline, base, &report)
	}
	if interrupted != nil {
		return resFlags.Finish(interrupted)
	}
	return nil
}

// readReport loads a previously written bench JSON document. Reports
// written before rows carried Procs ran every row at the report's
// GOMAXPROCS, so their rows are keyed by it.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Procs == 0 {
			r.Benchmarks[i].Procs = max(r.GOMAXPROCS, 1)
		}
	}
	return &r, nil
}

// geomeanSpeedup returns the geometric mean of old/new ns/op across every
// benchmark present in both reports (matched by package, name and procs),
// and the number of shared rows. No shared rows yields (0, 0).
func geomeanSpeedup(base, report *Report) (float64, int) {
	old := make(map[rowKey]float64, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		if r.NsPerOp > 0 {
			old[keyOf(r)] = r.NsPerOp
		}
	}
	logSum, n := 0.0, 0
	for _, r := range report.Benchmarks {
		b, ok := old[keyOf(r)]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		logSum += math.Log(b / r.NsPerOp)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logSum / float64(n)), n
}

// printDelta writes a side-by-side comparison of the fresh report against
// a baseline JSON to w: ns/op, states/sec where both rows carry it, every
// custom counter-snapshot metric (e.g. cache-hit-%) present on both sides,
// and a closing one-line geomean speedup over the shared rows. Rows only
// present on one side are marked as new or dropped; dropped rows are listed
// in (package, name, procs) order.
func printDelta(w io.Writer, path string, base, report *Report) {
	old := make(map[rowKey]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		old[keyOf(r)] = r
	}
	fmt.Fprintf(w, "\ndelta vs %s (%s):\n", path, base.Benchtime)
	fmt.Fprintf(w, "%-55s %14s %14s %9s %s\n", "benchmark", "old ns/op", "new ns/op", "speedup", "states/sec old -> new")
	for _, r := range report.Benchmarks {
		k := keyOf(r)
		b, ok := old[k]
		if !ok {
			fmt.Fprintf(w, "%-55s %14s %14.0f %9s\n", label(r), "(new)", r.NsPerOp, "-")
			continue
		}
		delete(old, k)
		speed := "-"
		if r.NsPerOp > 0 && b.NsPerOp > 0 {
			speed = fmt.Sprintf("%.2fx", b.NsPerOp/r.NsPerOp)
		}
		sps := ""
		if b.StatesPerSec > 0 && r.StatesPerSec > 0 {
			sps = fmt.Sprintf("%.0f -> %.0f (%.2fx)", b.StatesPerSec, r.StatesPerSec, r.StatesPerSec/b.StatesPerSec)
		}
		fmt.Fprintf(w, "%-55s %14.0f %14.0f %9s %s\n", label(r), b.NsPerOp, r.NsPerOp, speed, sps)
		if extras := formatExtraDelta(b.Extra, r.Extra); extras != "" {
			fmt.Fprintf(w, "%-55s %s\n", "", extras)
		}
	}
	dropped := make([]Result, 0, len(old))
	for _, r := range old { //lint:nondet sorted below
		dropped = append(dropped, r)
	}
	sort.Slice(dropped, func(i, j int) bool {
		a, b := keyOf(dropped[i]), keyOf(dropped[j])
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.procs < b.procs
	})
	for _, r := range dropped {
		fmt.Fprintf(w, "%-55s (dropped)\n", label(r))
	}
	if gm, n := geomeanSpeedup(base, report); n > 0 {
		fmt.Fprintf(w, "geomean speedup: %.2fx over %d shared benchmarks\n", gm, n)
	}
}

// formatExtraDelta renders "unit: old -> new" for every custom metric both
// rows report, sorted by unit name. Metrics on only one side are skipped —
// a baseline from before a metric existed should not flag every row.
func formatExtraDelta(old, new map[string]float64) string {
	var units []string
	for u := range new {
		if _, ok := old[u]; ok {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	var parts []string
	for _, u := range units {
		ov, nv := old[u], new[u]
		if ov == nv {
			parts = append(parts, fmt.Sprintf("%s: %.4g (=)", u, nv))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s: %.4g -> %.4g", u, ov, nv))
	}
	return strings.Join(parts, "  ")
}

// parseBench extracts Result rows from `go test -bench` output. Benchmark
// lines look like:
//
//	BenchmarkE1_InitialConnectivity/n=5-8  142  8234567 ns/op  12 B/op  3 allocs/op  40 states
func parseBench(r *bytes.Buffer, pkg string) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := trimProcSuffix(fields[0])
		res := Result{
			Name:       name,
			Package:    pkg,
			Procs:      procs,
			Iterations: iters,
		}
		// The rest of the line is (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			case "states":
				res.States = v
			default:
				if res.Extra == nil {
					res.Extra = make(map[string]float64)
				}
				res.Extra[fields[i+1]] = v
			}
		}
		if res.States > 0 && res.NsPerOp > 0 {
			res.StatesPerSec = res.States / (res.NsPerOp / 1e9)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// trimProcSuffix splits the "-N" GOMAXPROCS suffix go test appends to
// benchmark names off name and returns N; go test appends none at
// GOMAXPROCS 1, so a name without one reports 1.
func trimProcSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return name, 1
	}
	return name[:i], n
}
