// Command chaoscampaign proves the engine's self-healing contract end to
// end, two ways:
//
// The campaign sweep (the default) runs the full layered-analysis
// pipeline — explore, certify, field sweep, decision valences, knowledge
// partition — once fault-free for a reference summary, then once per
// (seed × fault point × fault kind) cell with a seeded chaos plan armed
// and the run supervised by resilient.Supervisor: every fault in the
// ErrPartial family (panic, cancel, injected budget exhaustion) backs off
// and retries from the attempt's checkpoint at the same worker count.
// Every supervised run must recover and reproduce the reference summary
// bit for bit — verdict, witness, Explored, field masks, knowledge
// classes. The report is emitted as JSON (-out) and the process exits 1
// on any unrecovered failure or divergent recovery:
//
//	chaoscampaign -seeds 18 -retries 6 -backoff 1ms -out campaign.json
//
// The crash harness (-crash) proves checkpoint durability the hard way:
// it re-executes itself as a child (-crash-child) that hammers checkpoint
// generations through resilient.Store, SIGKILLs the child mid-write,
// and then requires that the store still loads an intact generation whose
// resumed exploration re-derives the fault-free graph. It also exercises
// the torn-write fallback deterministically by truncating and bit-flipping
// the newest generation:
//
//	chaoscampaign -crash -crash-kills 4
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/knowledge"
	"repro/internal/resilient"
	"repro/internal/valence"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaoscampaign:", err)
		os.Exit(1)
	}
}

type options struct {
	spec    cli.Spec
	depth   int
	workers int
	seeds   int
	maxHit  uint64
	out     string
	res     *cli.ResilienceFlags
	stdout  io.Writer

	crash      bool
	crashChild bool
	crashDir   string
	crashKills int
}

// run parses args and runs the sweep, the crash harness or its child,
// writing the summary lines to stdout. Counts that would make an empty or
// meaningless run are errors naming the flag, returned before any case
// runs.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("chaoscampaign", flag.ContinueOnError)
	o := options{stdout: stdout}
	fs.StringVar(&o.spec.Model, "model", "mobile", fmt.Sprintf("model family %v", cli.Models()))
	fs.IntVar(&o.spec.N, "n", 3, "number of processes")
	fs.IntVar(&o.spec.T, "t", 1, "failure budget (sync-st only)")
	fs.IntVar(&o.spec.Bound, "bound", 2, "protocol decision bound")
	fs.IntVar(&o.depth, "depth", 2, "exploration depth")
	fs.IntVar(&o.workers, "workers", 2, "exploration worker count of every run")
	fs.IntVar(&o.seeds, "seeds", 18, "seeds swept; cases = seeds x 5 fault points x 4 fault kinds")
	maxHit := fs.Uint64("max-hit", 3, "seeded fault hits fall in [1, max-hit]")
	fs.StringVar(&o.out, "out", "", "write the JSON campaign report to `file`")
	fs.BoolVar(&o.crash, "crash", false, "run the subprocess SIGKILL crash harness instead of the sweep")
	fs.BoolVar(&o.crashChild, "crash-child", false, "internal: run as the crash harness's checkpoint-hammering child")
	fs.StringVar(&o.crashDir, "crash-dir", "", "crash harness working directory (default: a temp dir)")
	fs.IntVar(&o.crashKills, "crash-kills", 4, "how many SIGKILL rounds the crash harness runs")
	obsFlags := cli.RegisterObs(fs)
	o.res = cli.RegisterResilience(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case o.seeds < 1:
		return fmt.Errorf("-seeds must be >= 1, got %d", o.seeds)
	case *maxHit < 1:
		return fmt.Errorf("-max-hit must be >= 1, got %d", *maxHit)
	case o.depth < 0:
		return fmt.Errorf("-depth must be >= 0, got %d", o.depth)
	case o.crashKills < 1:
		return fmt.Errorf("-crash-kills must be >= 1, got %d", o.crashKills)
	}
	o.maxHit = *maxHit
	if o.res.Retries <= 0 {
		// The sweep is pointless without retry: recovery is what it tests.
		o.res.Retries = 6
	}
	if o.res.Backoff <= 0 {
		o.res.Backoff = time.Millisecond
	}
	if o.crashChild {
		return runCrashChild(o)
	}
	stopObs, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer stopObs()
	if o.crash {
		return runCrash(o)
	}
	return runCampaign(o)
}

// hashBytes summarizes a byte slice for compact equality checks.
func hashBytes(b []uint8) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func graphSummary(g *core.IDGraph) string {
	keys := make([]byte, 0, 64*g.Len())
	for _, k := range g.Keys {
		keys = append(keys, k...)
		keys = append(keys, 0)
	}
	return fmt.Sprintf("nodes=%d edges=%d depth=%d keys=%s",
		g.Len(), g.NumEdges(), g.Depth, hashBytes(keys))
}

func witnessSummary(w *valence.Witness) string {
	s := fmt.Sprintf("kind=%v explored=%d detail=%q", w.Kind, w.Explored, w.Detail)
	if w.Exec != nil {
		s += fmt.Sprintf(" init=%s steps=%d", w.Exec.Init.Key(), w.Exec.Len())
	}
	return s
}

// pipeline runs the full layered analysis under ctx, exploring with the
// given worker count, and summarizes every result. The summary must be
// bit-identical across fault-free and recovered runs — that is the
// property the campaign asserts.
func pipeline(ctx *resilient.Ctx, m core.Model, depth, n, workers int) (string, error) {
	g, err := core.ExploreIDCtx(ctx, m, depth, 0, workers)
	if err != nil {
		return "", err
	}
	w, err := valence.CertifyGraph(ctx, g, 0)
	if err != nil {
		return "", err
	}
	f, err := valence.NewFieldCtx(ctx, g)
	if err != nil {
		return "", err
	}
	cf, err := decision.FieldValences(ctx, g, decision.ConsensusCovering(n))
	if err != nil {
		return "", err
	}
	c, err := knowledge.NewClasses(ctx, g.States)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s | %s | field=%s | decision=%s | classes=%d",
		graphSummary(g), witnessSummary(w), hashBytes(f.Masks()), hashBytes(cf.Masks()), c.Count()), nil
}

// caseResult is one campaign cell's outcome.
type caseResult struct {
	Seed      uint64 `json:"seed"`
	Point     string `json:"point"`
	Kind      string `json:"kind"`
	Hit       uint64 `json:"hit"`
	Fired     int    `json:"fired"`
	Attempts  int    `json:"attempts"`
	Retries   int    `json:"retries"`
	Resumes   int    `json:"resumes"`
	Recovered bool   `json:"recovered"`
	Identical bool   `json:"identical"`
	Err       string `json:"err,omitempty"`
}

// report is the JSON campaign report.
type report struct {
	Model     string       `json:"model"`
	N         int          `json:"n"`
	Depth     int          `json:"depth"`
	Workers   int          `json:"workers"`
	Seeds     int          `json:"seeds"`
	Cases     int          `json:"cases"`
	Fired     int          `json:"fired"`
	Recovered int          `json:"recovered"`
	Identical int          `json:"identical"`
	Failures  int          `json:"failures"`
	Reference string       `json:"reference"`
	Results   []caseResult `json:"results"`
}

// campaignCase is one pre-derived cell of the sweep.
type campaignCase struct {
	seed  uint64
	point string
	kind  chaos.Kind
}

// runCampaign runs the fault-free reference and every case on models of
// their own: a model's cache remembers the graph explored on it, so a case
// run on the reference's model would take that graph and never reach an
// exploration fault point.
func runCampaign(o options) error {
	m, err := cli.Build(o.spec)
	if err != nil {
		return err
	}
	ctx, stopRes, err := o.res.Start()
	if err != nil {
		return err
	}
	defer stopRes()

	// Fault-free reference, chaos disarmed.
	ref, err := pipeline(ctx, m, o.depth, o.spec.N, o.workers)
	if err != nil {
		return fmt.Errorf("fault-free reference run failed: %w", err)
	}

	kinds := []chaos.Kind{chaos.KindPanic, chaos.KindDelay, chaos.KindCancel, chaos.KindBudget}
	var cases []campaignCase
	for seed := 1; seed <= o.seeds; seed++ {
		for _, point := range chaos.Points() {
			for _, kind := range kinds {
				cases = append(cases, campaignCase{seed: uint64(seed), point: point, kind: kind})
			}
		}
	}

	rep := report{
		Model:   o.spec.Model,
		N:       o.spec.N,
		Depth:   o.depth,
		Workers: o.workers,
		Seeds:   o.seeds,
		Cases:   len(cases),

		Reference: ref,
		Results:   make([]caseResult, 0, len(cases)),
	}
	for _, c := range cases {
		if err := ctx.Err(); err != nil {
			return o.res.Finish(fmt.Errorf("campaign interrupted after %d cases: %w", len(rep.Results), err))
		}
		cm, err := cli.Build(o.spec)
		if err != nil {
			return err
		}
		plan := chaos.PlanFor(c.seed, c.point, c.kind, o.maxHit)
		chaos.Arm(plan)
		sup := o.res.Supervisor()
		sup.Seed = c.seed
		sup.MaxBackoff = 50 * time.Millisecond
		var got string
		stats, runErr := sup.Run(ctx, c.point, func(a *resilient.Attempt) error {
			s, perr := pipeline(a.Ctx, cm, o.depth, o.spec.N, o.workers)
			if perr != nil {
				return perr
			}
			got = s
			return nil
		})
		chaos.Disarm()

		fired := plan.Fired()
		res := caseResult{
			Seed:      c.seed,
			Point:     c.point,
			Kind:      c.kind.String(),
			Fired:     len(fired),
			Attempts:  stats.Attempts,
			Retries:   stats.Retries,
			Resumes:   stats.Resumes,
			Recovered: runErr == nil,
			Identical: runErr == nil && got == ref,
		}
		if len(fired) > 0 {
			res.Hit = fired[0].Hit
		}
		if runErr != nil {
			res.Err = runErr.Error()
		}
		if res.Fired > 0 {
			rep.Fired++
		}
		if res.Recovered {
			rep.Recovered++
		}
		if res.Identical {
			rep.Identical++
		} else {
			rep.Failures++
		}
		rep.Results = append(rep.Results, res)
	}

	if o.out != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(o.stdout, "campaign: %d cases (%d seeds x %d points x 4 kinds), %d fired, %d recovered, %d bit-identical, %d failures\n",
		rep.Cases, o.seeds, len(chaos.Points()), rep.Fired, rep.Recovered, rep.Identical, rep.Failures)
	if rep.Failures > 0 {
		for _, r := range rep.Results {
			if !r.Identical {
				fmt.Fprintf(os.Stderr, "  FAIL seed=%d point=%s kind=%s hit=%d attempts=%d err=%s\n",
					r.Seed, r.Point, r.Kind, r.Hit, r.Attempts, r.Err)
			}
		}
		return fmt.Errorf("%d of %d cases failed to recover bit-identically", rep.Failures, rep.Cases)
	}
	return nil
}

// ---- crash harness ----

// crashStore returns the harness's generation store inside dir.
func crashStore(dir string) *resilient.Store {
	return &resilient.Store{Path: filepath.Join(dir, "crash.ckpt"), Keep: 3}
}

// runCrashChild is the subprocess the harness SIGKILLs: it interrupts a
// real exploration to obtain genuine checkpoint sections, then hammers
// Store.Save in a tight loop — rotating generations, writing temp files,
// fsyncing, renaming — printing one line per completed save so the parent
// knows when to pull the trigger. It never exits on its own.
func runCrashChild(o options) error {
	m, err := cli.Build(o.spec)
	if err != nil {
		return err
	}
	plan := chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 2, Kind: chaos.KindCancel})
	chaos.Arm(plan)
	_, xerr := core.ExploreIDCtx(resilient.Background(), m, o.depth, 0, 1)
	chaos.Disarm()
	if xerr == nil {
		return errors.New("crash-child: exploration was not interrupted; no checkpoint to hammer")
	}
	ck, ok := resilient.CheckpointFrom(xerr)
	if !ok {
		return fmt.Errorf("crash-child: interruption carried no checkpoint: %w", xerr)
	}
	sections, err := ck.Sections()
	if err != nil {
		return err
	}
	st := crashStore(o.crashDir)
	out := bufio.NewWriter(o.stdout)
	for i := 0; ; i++ {
		if err := st.Save(sections); err != nil {
			return fmt.Errorf("crash-child: save %d: %w", i, err)
		}
		fmt.Fprintf(out, "gen %d\n", i)
		out.Flush()
	}
}

// runCrash SIGKILLs the checkpoint-hammering child mid-write, several
// times with varied timing, and requires after every kill that the store
// loads an intact generation whose resumed exploration re-derives the
// fault-free graph. It then exercises the torn-write fallback
// deterministically: truncating or bit-flipping the newest generation must
// make Load fall back to the previous one, never fail.
func runCrash(o options) error {
	m, err := cli.Build(o.spec)
	if err != nil {
		return err
	}
	gref, err := core.ExploreIDCtx(nil, m, o.depth, 0, 1)
	if err != nil {
		return err
	}
	ref := graphSummary(gref)

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := o.crashDir
	if base == "" {
		base, err = os.MkdirTemp("", "chaoscrash")
		if err != nil {
			return err
		}
		defer os.RemoveAll(base)
	} else if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}

	resume := func(st *resilient.Store, round string) error {
		sections, gen, err := st.Load()
		if err != nil {
			return fmt.Errorf("%s: store unloadable after kill: %w", round, err)
		}
		ctx := resilient.Background()
		ctx.SetResume(sections)
		g, err := core.ExploreIDCtx(ctx, m, o.depth, 0, 1)
		if err != nil {
			return fmt.Errorf("%s: resume from generation %d failed: %w", round, gen, err)
		}
		if got := graphSummary(g); got != ref {
			return fmt.Errorf("%s: resumed graph diverged from reference:\n got %s\nwant %s", round, got, ref)
		}
		fmt.Fprintf(o.stdout, "crash: %s: recovered from generation %d, bit-identical\n", round, gen)
		return nil
	}

	for kill := 0; kill < o.crashKills; kill++ {
		dir := filepath.Join(base, fmt.Sprintf("kill%d", kill))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		cmd := exec.Command(exe,
			"-crash-child", "-crash-dir", dir,
			"-model", o.spec.Model, "-n", fmt.Sprint(o.spec.N),
			"-t", fmt.Sprint(o.spec.T), "-bound", fmt.Sprint(o.spec.Bound),
			"-depth", fmt.Sprint(o.depth))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		// Let the child complete a varying number of saves, then land the
		// SIGKILL somewhere inside the rotate-write-fsync-rename window.
		sc := bufio.NewScanner(stdout)
		saves := 0
		for sc.Scan() {
			saves++
			if saves > kill {
				break
			}
		}
		if saves == 0 {
			cmd.Process.Kill()
			cmd.Wait()
			return errors.New("crash: child produced no checkpoint generation")
		}
		time.Sleep(time.Duration(kill) * 300 * time.Microsecond)
		if err := cmd.Process.Kill(); err != nil {
			return err
		}
		cmd.Wait()
		if err := resume(crashStore(dir), fmt.Sprintf("kill %d (after %d saves)", kill, saves)); err != nil {
			return err
		}
	}

	// Deterministic torn-write fallback: two generations, then mangle the
	// newest — Load must fall back to generation 1, not fail and not trust
	// the mangled bytes.
	tornDir := filepath.Join(base, "torn")
	if err := os.MkdirAll(tornDir, 0o755); err != nil {
		return err
	}
	st := crashStore(tornDir)
	sections := []resilient.Section{{Tag: resilient.TagExplore, Data: []byte("not a real snapshot")}}
	if err := st.Save(sections); err != nil {
		return err
	}
	if err := st.Save(sections); err != nil {
		return err
	}
	mangle := []func(path string) error{
		func(path string) error { // torn tail: truncate mid-section
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()/2)
		},
		func(path string) error { // bit rot: flip one payload byte
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)-6] ^= 0x80
			return os.WriteFile(path, data, 0o644)
		},
	}
	for i, f := range mangle {
		if err := f(st.Path); err != nil {
			return err
		}
		got, gen, err := st.Load()
		if err != nil {
			return fmt.Errorf("torn case %d: fallback load failed: %w", i, err)
		}
		if gen == 0 {
			return fmt.Errorf("torn case %d: load trusted the mangled generation 0", i)
		}
		if len(got) != 1 || got[0].Tag != resilient.TagExplore || string(got[0].Data) != string(sections[0].Data) {
			return fmt.Errorf("torn case %d: fallback returned wrong sections", i)
		}
		// Restore generation 0 for the next mangling.
		if err := st.Save(sections); err != nil {
			return err
		}
	}
	fmt.Fprintf(o.stdout, "crash: %d SIGKILL rounds + %d torn-write cases recovered, all bit-identical\n",
		o.crashKills, len(mangle))
	return nil
}
