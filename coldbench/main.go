// Command coldbench is the repository's cold end-to-end benchmark. It
// times what a user of the framework waits for: building a layered
// submodel, exploring it, sweeping the valence field over the explored
// graph and certifying or refuting a protocol, in a process that has
// computed nothing before. Every sample checks every verdict it produces
// against an expectation pinned in this package.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash coldbench/run.sh --workload sync_lowerbound --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (each metric a value and a unit). A human-readable
// summary goes to standard error. The exit status is nonzero when any
// sample failed or a metric could not be computed.
//
// # Load
//
// The load is a closed loop with one client. The harness re-executes its
// own binary as one child process per sample and starts the next child
// only after the previous one has exited, so at most one child runs at a
// time. Each child has a fresh heap and fresh model caches, so every sample
// is cold. A child runs with GOMAXPROCS set to the number of CPUs the
// harness may use (nproc), and the engines size their worker pools from
// GOMAXPROCS, so no run uses more threads than nproc. With --trace 0 each
// sample is preceded by a reference child (below), also one at a time. A
// run takes samples for --seconds and until it has at least 10.
//
// # Workloads
//
//   - sync_lowerbound: E5 / Corollary 6.3 in SyncSt, for (n=7, t=2) and
//     (n=6, t=3). FloodSet(t+1) must certify OK and FloodSet(t) must be
//     refuted. The graph is graded, about 95% of enumerated successors are
//     already interned, and the certifier walks the whole graph. This is
//     the headline workload for a change to core or to the models.
//   - mobile_refute: E2 / Corollary 5.2, FloodSet in MobileS1 for (n=7,
//     B=3) and (n=8, B=2). Branching is 40–53 edges per state against about
//     19 in sync, and certification stops at the witness after visiting
//     about half of the states. The model layer is mobile, not syncmp.
//   - async_nongraded: E4 scaled up, MPFlood in AsyncMessagePassing (n=3,
//     P=3) and AsyncSynchronic (n=3, P=4). The graphs have same-depth
//     shortcut edges, so the field runs its fixpoint sweep and
//     CertifyGraphCtx returns ErrNotGraded, after which the recursive
//     Certify decides. About 7.5k states at 3.6–4.7 edges per state make
//     interning insert-heavy.
//   - task_zoo: E7 + E10, KThickConnected(1, ·) over every task of
//     tasks.Zoo(3), then CertifyTask of 1-round flooding in MobileS1 (n=3,
//     ternary inputs) for 2-set agreement (solved) and consensus (not
//     solved). simplex, tasks and decision do the work; core exploration
//     and the valence field do none. It is the control: a change to
//     exploration or the field predicts no change here.
//   - faulted_resume: the FloodSet(t+1) certification of sync_lowerbound
//     under layers.Supervisor, with one chaos fault armed per supervised
//     run. It measures recovery: checkpoint harvest, resume and retry.
//     Each run must take exactly 2 attempts, resume once after a cancel
//     (a panic leaves no checkpoint, so the retry starts over), and reach
//     the fault-free verdict.
//
// A sample runs every configuration of its workload, so the work of a
// sample does not depend on its seed.
//
// # Seed
//
// --seed starts a splitmix64 stream owned by the harness, which draws one
// seed per sample and passes it to the child. The child's stream orders the
// workload's configurations; for task_zoo it also orders the tasks, and for
// faulted_resume it picks each run's fault point (explore.layer,
// field.layer or certify.visit), its kind (cancel or panic) and, through
// chaos.PlanFor, the hit in [1, 3] on which it fires. The engines receive
// only the model, the protocol and the sizes.
//
// # End-to-end metrics (--trace 0)
//
// The host is shared, and its speed drifts by tens of percent over minutes
// as other tenants take its cores, caches and memory bandwidth. So before
// every sample the harness runs a fixed reference computation (see
// reference.go) in a child of its own, and the times are reported in units
// of the reference's: a ratio of 1.5 ref means the sample took one and a
// half times as long as the reference just before it. The reference uses
// no code of the repository, so a change to the engines moves the ratios
// as it moves the times.
//
//   - verdict_ref_p50: median of the sample's wall time, from the first
//     engine call to the last checked verdict, over the reference's wall
//     time.
//   - cpu_ref_p50: median of the child's user+system CPU time over the
//     reference child's; it shows parallel work that lowers wall time by
//     using more cores, and lock contention that burns them.
//   - max_rss_mb_p50: median peak resident set of a child, MiB.
//   - setup_s: median time from starting a child to its first engine call:
//     exec, runtime start, building models, tasks and initial states. It is
//     normalized like the others and then multiplied by refHostS, the
//     reference's time on the calibration host, so that it reads in seconds
//     of that host.
//
// Only medians are reported: a run of --seconds 24 takes about 30 samples
// on the process-bound workloads, too few for ten beyond any higher
// percentile. There is no GOMAXPROCS=1 metric: with a third of the samples
// it spread up to 16% between runs. The summary on standard error also
// gives the plain medians in seconds.
//
// # Per-layer metrics (--trace 1)
//
// A traced run alternates traced and untraced samples and reports
// medians over the traced ones. The spans are timed in this package around
// its calls into the facade and the package entry points, not inside the
// engines. Each line names the end-to-end metric and the workloads the
// layer metric should move.
//
//   - models (syncmp, mobile, asyncmp, protocols): models.build_s is model
//     construction and Inits (setup_s, every workload); models.step_s
//     replays the raw successor function over every expanded node after the
//     verdict, models.key_s builds the canonical key of every successor it
//     returned, and models.branching is edges per expanded state. These move
//     verdict_ref_p50 and cpu_ref_p50 on sync_lowerbound, mobile_refute and
//     async_nongraded, and nothing on task_zoo.
//   - core: core.explore_s; core.states, core.edges and
//     core.layer.<d>.states; core.dedup_frac, 1 − (states − inits)/edges,
//     the intern table's share of lookups that find a state already
//     interned; core.allocs_per_edge and core.alloc_bytes_per_state, from
//     the runtime's memory statistics around each exploration;
//     core.cache_hit_frac, the successor cache's hit rate; and
//     core.explore_other_s, core.explore_s − models.step_s − models.key_s,
//     the residual for interning, graph building and scheduling (negative
//     when parallel enumeration beats the serial replay). explore_s and
//     allocs_per_edge move verdict_ref_p50, cpu_ref_p50 and max_rss_mb_p50
//     on the first three workloads and on faulted_resume. dedup_frac explains
//     why an interning change shows more on async_nongraded than on
//     mobile_refute, and cpu_ref_p50 rising against verdict_ref_p50 is
//     where lock contention in interning shows.
//   - valence: valence.field_s, valence.certify_s, valence.fallback_s (the
//     recursive Certify after ErrNotGraded), valence.certify_explored,
//     valence.bivalent_frac (bivalent nodes over states, the paper's central
//     quantity), valence.layer.<d>.bivalent, valence.bivalent_last_layer
//     and valence.witness_depth. They take under 1% of verdict time on every
//     workload, so a field or certifier change predicts a change of
//     verdict_ref_p50 below its bound on all of them.
//   - tasks / decision: tasks.kthick_s and decision.certify_task_s move
//     verdict_ref_p50 on task_zoo only.
//   - resilient: resilient.supervise_s (whole supervised runs),
//     resilient.attempt_s (first attempts), resilient.resume_s (successful
//     attempts), resilient.attempts and resilient.resumes, summed over a
//     sample's supervised runs. They move verdict_ref_p50 on faulted_resume
//     only.
//   - runtime: runtime.gc_cycles, runtime.gc_pause_s,
//     runtime.total_alloc_mb and runtime.heap_inuse_peak_mb follow
//     core.allocs_per_edge into cpu_ref_p50 and max_rss_mb_p50.
//   - harness: unattributed_s is verdict time minus the spans opened at top
//     level, attributed_frac their share of it, and trace_overhead_frac the
//     traced samples' median verdict time over the untraced ones' minus 1.
//
// Workloads that do not reach a layer report 0 for its metrics; depths
// beyond 4 are not reported.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minSamples and minTraced (for each half of a traced run) are floors
	// for short runs; at --seconds 24 the time decides, so that a run lasts
	// about as long on a slow host as on a fast one.
	minSamples = 10
	minTraced  = 10
	// lastStart is when a run stops starting samples whatever it has, and
	// childLimit kills a child that runs longer, so a run ends within
	// lastStart + childLimit.
	lastStart  = 120 * time.Second
	childLimit = 30 * time.Second
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "ref":
			os.Exit(refMain())
		}
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// endToEnd lists the --trace 0 metrics: each is the median of one value
// over the samples.
var endToEnd = []struct {
	name, unit string
	of         func(sample) float64
}{
	{"verdict_ref_p50", "ref", func(s sample) float64 { return s.verdictS / s.refS }},
	{"cpu_ref_p50", "ref", func(s sample) float64 { return s.cpuS / s.refCPUS }},
	{"max_rss_mb_p50", "MiB", func(s sample) float64 { return s.rssMiB }},
	{"setup_s", "s", func(s sample) float64 { return s.setupS / s.refS * refHostS }},
}

// perLayer lists the --trace 1 metrics a traced child reports, by name and
// unit; trace_overhead_frac is computed by the harness.
var perLayer = [][2]string{
	{"models.build_s", "s"},
	{"models.step_s", "s"},
	{"models.key_s", "s"},
	{"models.branching", "edges/state"},
	{"core.explore_s", "s"},
	{"core.explore_other_s", "s"},
	{"core.states", "count"},
	{"core.edges", "count"},
	{"core.dedup_frac", "ratio"},
	{"core.allocs_per_edge", "allocs/edge"},
	{"core.alloc_bytes_per_state", "B/state"},
	{"core.cache_hit_frac", "ratio"},
	{"core.layer.0.states", "count"},
	{"core.layer.1.states", "count"},
	{"core.layer.2.states", "count"},
	{"core.layer.3.states", "count"},
	{"core.layer.4.states", "count"},
	{"valence.field_s", "s"},
	{"valence.certify_s", "s"},
	{"valence.fallback_s", "s"},
	{"valence.certify_explored", "count"},
	{"valence.bivalent_frac", "ratio"},
	{"valence.layer.0.bivalent", "count"},
	{"valence.layer.1.bivalent", "count"},
	{"valence.layer.2.bivalent", "count"},
	{"valence.layer.3.bivalent", "count"},
	{"valence.layer.4.bivalent", "count"},
	{"valence.bivalent_last_layer", "layer"},
	{"valence.witness_depth", "steps"},
	{"tasks.kthick_s", "s"},
	{"decision.certify_task_s", "s"},
	{"resilient.supervise_s", "s"},
	{"resilient.attempt_s", "s"},
	{"resilient.resume_s", "s"},
	{"resilient.attempts", "count"},
	{"resilient.resumes", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.total_alloc_mb", "MiB"},
	{"runtime.heap_inuse_peak_mb", "MiB"},
	{"unattributed_s", "s"},
	{"attributed_frac", "ratio"},
}

const overheadMetric = "trace_overhead_frac"

// sample is one child's measurement, with the wall and CPU time of the
// reference child run before it in an untraced run. err is set when either
// child failed: an engine error, a verdict that differs from its pin, a
// nonzero exit or a timeout.
type sample struct {
	traced        bool
	err           error
	setupS        float64
	verdictS      float64
	cpuS          float64
	rssMiB        float64
	refS, refCPUS float64
	layer         map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parentMain runs the harness and writes the result line to stdout; it
// returns the exit status.
func parentMain(args []string, stdout io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("coldbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of the run's sample stream")
	seconds := fs.Float64("seconds", 24, "how long the run keeps taking samples")
	trace := fs.Int("trace", 0, "0 for the end-to-end metrics, 1 for a traced run and the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "coldbench: need --workload one of %s and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coldbench:", err)
		return 1
	}
	res := measure(exe, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coldbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs samples of w one child at a time for the given duration and
// until the minimum sample counts are met, and summarizes them.
func measure(exe string, w *workload, seed uint64, seconds time.Duration, traced bool) *result {
	s := stream(seed)
	var samples []sample
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); el >= lastStart || (el >= seconds && enough(samples, traced)) {
			break
		}
		if traced {
			samples = append(samples, runChild(exe, w.name, s.next(), i%2 == 0))
			continue
		}
		refS, refCPUS, refErr := runRef(exe)
		sm := runChild(exe, w.name, s.next(), false)
		sm.refS, sm.refCPUS = refS, refCPUS
		if refErr != nil {
			sm.err = refErr
		}
		samples = append(samples, sm)
	}
	res := summarize(samples, traced)
	fmt.Fprintf(os.Stderr, "coldbench: %s seed %d, trace %v: %d samples in %.1fs, nproc %d, %d failed\n",
		w.name, seed, traced, res.Attempted, time.Since(start).Seconds(), runtime.NumCPU(), res.Failed)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if !traced {
		printPlain(samples)
	}
	return res
}

// printPlain writes the plain medians, in seconds, of the samples' set-up
// and verdict times and of the reference's time to standard error.
func printPlain(samples []sample) {
	var setup, verdict, ref []float64
	for _, s := range samples {
		if s.err == nil {
			setup = append(setup, s.setupS)
			verdict = append(verdict, s.verdictS)
			ref = append(ref, s.refS)
		}
	}
	su, errS := median(setup)
	v, errV := median(verdict)
	r, errR := median(ref)
	if errS == nil && errV == nil && errR == nil {
		fmt.Fprintf(os.Stderr, "  plain medians: setup %.6g s, verdict %.6g s, reference %.6g s\n", su, v, r)
	}
}

func enough(samples []sample, traced bool) bool {
	if !traced {
		return len(samples) >= minSamples
	}
	n := 0
	for _, s := range samples {
		if s.traced {
			n++
		}
	}
	return n >= minTraced && len(samples)-n >= minTraced
}

// summarize counts the failed samples and takes each metric's median over
// the others.
func summarize(samples []sample, traced bool) *result {
	res := &result{Attempted: len(samples), Metrics: make(map[string]metric)}
	var ok []sample
	for _, s := range samples {
		if s.err != nil {
			res.Failed++
			if res.Failed <= 3 {
				fmt.Fprintln(os.Stderr, "coldbench: sample failed:", s.err)
			}
			continue
		}
		ok = append(ok, s)
	}
	complete := true
	set := func(name, unit string, xs []float64) {
		v, err := median(xs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coldbench: %s: %v\n", name, err)
			complete = false
			return
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if traced {
		var tracedVerdict, plainVerdict []float64
		for _, s := range ok {
			if s.traced {
				tracedVerdict = append(tracedVerdict, s.verdictS)
			} else {
				plainVerdict = append(plainVerdict, s.verdictS)
			}
		}
		for _, def := range perLayer {
			var xs []float64
			for _, s := range ok {
				if s.traced {
					xs = append(xs, s.layer[def[0]])
				}
			}
			set(def[0], def[1], xs)
		}
		t, errT := median(tracedVerdict)
		p, errP := median(plainVerdict)
		if errT == nil && errP == nil {
			res.Metrics[overheadMetric] = metric{Value: t/p - 1, Unit: "ratio"}
		} else {
			complete = false
		}
	} else {
		for _, def := range endToEnd {
			var xs []float64
			for _, s := range ok {
				xs = append(xs, def.of(s))
			}
			set(def.name, def.unit, xs)
		}
	}
	res.Correct = res.Failed == 0 && complete && res.Attempted > 0
	return res
}

// spawn runs the benchmark binary with args in a fresh child process at
// GOMAXPROCS=nproc, waits for it, and decodes the JSON it prints into rep.
// It returns the child's process state and the instant it started.
func spawn(exe string, rep any, args ...string) (*os.ProcessState, time.Time, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	procs := runtime.NumCPU()
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, start, fmt.Errorf("%s, GOMAXPROCS=%d: %w: %s", strings.Join(args, " "), procs, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := json.Unmarshal(stdout.Bytes(), rep); err != nil {
		return nil, start, fmt.Errorf("%s: child report: %w", strings.Join(args, " "), err)
	}
	return cmd.ProcessState, start, nil
}

func cpuTime(ps *os.ProcessState) float64 { return (ps.UserTime() + ps.SystemTime()).Seconds() }

// runRef runs the reference computation in a fresh child process and
// returns its wall time and the child's CPU time.
func runRef(exe string) (refS, cpuS float64, err error) {
	var rep refReport
	ps, _, err := spawn(exe, &rep, "ref")
	if err != nil {
		return 0, 0, err
	}
	return rep.RefS, cpuTime(ps), nil
}

// runChild runs one sample in a fresh child process and waits for it.
func runChild(exe, workload string, seed uint64, traced bool) sample {
	sm := sample{traced: traced}
	var rep childReport
	ps, start, err := spawn(exe, &rep, "child",
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-traced="+strconv.FormatBool(traced))
	if err != nil {
		sm.err = err
		return sm
	}
	sm.setupS = float64(rep.FirstCall-start.UnixNano()) / 1e9
	sm.verdictS = rep.VerdictS
	sm.cpuS = cpuTime(ps)
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		sm.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	sm.layer = rep.Layer
	return sm
}

// childReport is what a child prints: the wall-clock instant of its first
// engine call, its verdict time, and in a traced sample the per-layer
// values.
type childReport struct {
	FirstCall int64              `json:"first_call_unix_ns"`
	VerdictS  float64            `json:"verdict_s"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("coldbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 0, "sample seed")
	traced := fs.Bool("traced", false, "take the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep, err := runSample(w, *seed, *traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// runSample builds a sample's inputs, runs and checks its engine half, and
// in a traced sample derives the per-layer values.
func runSample(w *workload, seed uint64, traced bool) (*childReport, error) {
	t := newTracer(traced)
	s := stream(seed)
	start := time.Now()
	run := w.prepare(t, &s)
	build := time.Since(start)
	first := time.Now()
	if err := run(); err != nil {
		return nil, err
	}
	verdict := time.Since(first)
	rep := &childReport{FirstCall: first.UnixNano(), VerdictS: verdict.Seconds()}
	if traced {
		rep.Layer = t.finish(build, verdict)
	}
	return rep, nil
}
