package main

import (
	"errors"
	"fmt"
	"time"

	layers "repro"
	"repro/internal/chaos"
	"repro/internal/decision"
	"repro/internal/resilient"
	"repro/internal/tasks"
)

// workload is one named benchmark input. prepare does everything a sample
// does before its first engine call — it builds the models, tasks and
// initial states from the sample's seed stream — and returns the engine
// half, which makes the engine calls and checks every verdict against the
// pinned expectations.
type workload struct {
	name    string
	prepare func(t *tracer, s *stream) func() error
}

var workloads = []*workload{
	{
		name:    "sync_lowerbound",
		prepare: graphWorkload(syncPool),
	},
	{
		name:    "mobile_refute",
		prepare: graphWorkload(mobilePool),
	},
	{
		name:    "async_nongraded",
		prepare: graphWorkload(asyncPool),
	},
	{
		name:    "task_zoo",
		prepare: taskZoo,
	},
	{
		name:    "faulted_resume",
		prepare: faultedResume,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// verdict is the pinned outcome of one explore → field → certify pipeline.
// witness is the witness execution's length, -1 when there is none.
type verdict struct {
	kind     layers.WitnessKind
	explored int
	witness  int
	states   int
	edges    int
	bivalent int
	graded   bool
}

// graphCase is one certification: a model, its layer bound, and the pinned
// verdict.
type graphCase struct {
	name  string
	model func() layers.Model
	bound int
	want  verdict
}

func syncSt(rounds, n, t int) func() layers.Model {
	return func() layers.Model { return layers.SyncSt(layers.FloodSet{Rounds: rounds}, n, t) }
}

func mobileS1(rounds, n int) func() layers.Model {
	return func() layers.Model { return layers.MobileS1(layers.FloodSet{Rounds: rounds}, n) }
}

// Each pool entry is one configuration; a sample certifies every entry of
// its workload's pool, in an order drawn from its seed. The expectations
// were measured at the commit that introduced the benchmark and must not
// change: any engine change that moves one is a correctness bug.
var (
	syncPool = [][]graphCase{
		{
			{"SyncSt FloodSet(3) n=7 t=2", syncSt(3, 7, 2), 3,
				verdict{kind: layers.OK, explored: 678, witness: -1, states: 678, edges: 12927, bivalent: 14, graded: true}},
			{"SyncSt FloodSet(2) n=7 t=2", syncSt(2, 7, 2), 2,
				verdict{kind: layers.AgreementViolation, explored: 252, witness: 2, states: 481, edges: 11065, bivalent: 38, graded: true}},
		},
		{
			{"SyncSt FloodSet(4) n=6 t=3", syncSt(4, 6, 3), 4,
				verdict{kind: layers.OK, explored: 1091, witness: -1, states: 1091, edges: 13723, bivalent: 17, graded: true}},
			{"SyncSt FloodSet(3) n=6 t=3", syncSt(3, 6, 3), 3,
				verdict{kind: layers.AgreementViolation, explored: 374, witness: 3, states: 715, edges: 9563, bivalent: 25, graded: true}},
		},
	}
	mobilePool = [][]graphCase{
		{{"MobileS1 FloodSet(3) n=7", mobileS1(3, 7), 3,
			verdict{kind: layers.AgreementViolation, explored: 161, witness: 3, states: 299, edges: 12100, bivalent: 48, graded: true}}},
		{{"MobileS1 FloodSet(2) n=8", mobileS1(2, 8), 2,
			verdict{kind: layers.AgreementViolation, explored: 208, witness: 2, states: 402, edges: 21385, bivalent: 51, graded: true}}},
	}
	asyncPool = [][]graphCase{
		{{"AsyncMessagePassing MPFlood(3) n=3",
			func() layers.Model { return layers.AsyncMessagePassing(layers.MPFlood{Phases: 3}, 3) }, 3,
			verdict{kind: layers.UndecidedAtBound, explored: 10, witness: 3, states: 7520, edges: 26928, bivalent: 27, graded: false}}},
		{{"AsyncSynchronic MPFlood(4) n=3",
			func() layers.Model { return layers.AsyncSynchronic(layers.MPFlood{Phases: 4}, 3) }, 4,
			verdict{kind: layers.UndecidedAtBound, explored: 8, witness: 4, states: 7648, edges: 36300, bivalent: 15, graded: false}}},
	}
)

// built is a graph case with its model constructed.
type built struct {
	graphCase
	m layers.Model
}

// buildPool constructs every case of every pool entry, in a seeded entry
// order, and warms each model's initial states so that the first engine
// call starts from a constructed model.
func buildPool(pool [][]graphCase, s *stream) []built {
	var out []built
	for _, i := range s.perm(len(pool)) {
		for _, c := range pool[i] {
			m := c.model()
			m.Inits()
			out = append(out, built{graphCase: c, m: m})
		}
	}
	return out
}

func graphWorkload(pool [][]graphCase) func(*tracer, *stream) func() error {
	return func(t *tracer, s *stream) func() error {
		cases := buildPool(pool, s)
		return func() error {
			for _, c := range cases {
				out, err := t.pipeline(nil, c.m, c.bound)
				if err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
				if err := t.check(c.graphCase, out); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// outcome is what one pipeline produced.
type outcome struct {
	g      *layers.IDGraph
	f      *layers.Field
	w      *layers.Witness
	graded bool
}

// pipeline explores m to bound, sweeps the valence field and certifies:
// CertifyGraphCtx on graded graphs, the recursive Certify after
// ErrNotGraded. The engines size their worker pools from GOMAXPROCS.
func (t *tracer) pipeline(ctx *layers.Ctx, m layers.Model, bound int) (*outcome, error) {
	g, err := t.explore(ctx, m, bound)
	if err != nil {
		return nil, err
	}
	out := &outcome{g: g, graded: true}
	t.timed("valence.field_s", func() { out.f, err = layers.NewFieldParallelCtx(ctx, g, 0) })
	if err != nil {
		return nil, err
	}
	t.timed("valence.certify_s", func() { out.w, err = layers.CertifyGraphCtx(ctx, g, 0) })
	if errors.Is(err, layers.ErrNotGraded) {
		out.graded = false
		t.timed("valence.fallback_s", func() { out.w, err = layers.Certify(m, bound, 0) })
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func witnessLen(w *layers.Witness) int {
	if w.Exec == nil {
		return -1
	}
	return w.Exec.Len()
}

// check compares one pipeline's outcome with its pinned verdict and, in a
// traced sample, records the graph's per-layer counts.
func (t *tracer) check(c graphCase, out *outcome) error {
	perLayer := make([]int, out.g.NumLayers())
	bivalent := 0
	for d := range perLayer {
		for _, u := range out.g.Layer(d) {
			if out.f.Bivalent(u) {
				perLayer[d]++
			}
		}
		bivalent += perLayer[d]
	}
	got := verdict{
		kind:     out.w.Kind,
		explored: out.w.Explored,
		witness:  witnessLen(out.w),
		states:   out.g.Len(),
		edges:    out.g.NumEdges(),
		bivalent: bivalent,
		graded:   out.graded,
	}
	if got != c.want {
		return fmt.Errorf("%s: verdict %+v, want %+v", c.name, got, c.want)
	}
	if t.traced {
		t.recordGraph(out, perLayer)
	}
	return nil
}

// ternaryInits returns the 3^n initial states with inputs in {0,1,2}.
func ternaryInits(initial func([]int) layers.State, n int) []layers.State {
	total := 1
	for i := 0; i < n; i++ {
		total *= 3
	}
	inits := make([]layers.State, 0, total)
	for a := 0; a < total; a++ {
		in := make([]int, n)
		for i, v := 0, a; i < n; i, v = i+1, v/3 {
			in[i] = v % 3
		}
		inits = append(inits, initial(in))
	}
	return inits
}

// zooSolvable pins KThickConnected(1, ·) for every task of tasks.Zoo(3).
var zooSolvable = map[string]bool{
	"consensus(n=3)":        false,
	"2-set-agreement(n=3)":  true,
	"identity(n=3)":         true,
	"constant-0(n=3)":       true,
	"leader-election(n=3)":  true,
	"holder-election(n=3)":  false,
	"epsilon-flag(n=3)":     true,
	"majority(n=3)":         false,
	"renaming(n=3,names=5)": true,
}

// taskVerdict is the pinned outcome of one CertifyTask call.
type taskVerdict struct {
	kind     decision.TaskWitnessKind
	explored int
	witness  int
}

// E10: 1-round flooding in M^mf on ternary inputs solves 2-set agreement
// and not consensus.
var (
	twoSetWant    = taskVerdict{kind: layers.TaskOK, explored: 126, witness: -1}
	consensusWant = taskVerdict{kind: layers.TaskOutputViolation, explored: 17, witness: 1}
)

func taskZoo(t *tracer, s *stream) func() error {
	const n = 3
	zoo := layers.TaskZoo(n)
	order := s.perm(len(zoo))
	m := layers.MobileS1(layers.FloodSet{Rounds: 1}, n)
	inits := ternaryInits(func(in []int) layers.State { return m.Initial(in) }, n)
	twoSet := tasks.KSetAgreement(n, 2).Problem.Delta
	consensus := layers.BinaryConsensusTask(n).Problem.Delta
	return func() error {
		if len(zoo) != len(zooSolvable) {
			return fmt.Errorf("task zoo has %d tasks, want %d", len(zoo), len(zooSolvable))
		}
		for _, i := range order {
			task := zoo[i]
			budget := task.SubproblemBudget
			if budget == 0 {
				budget = 1_000_000
			}
			var ok bool
			var err error
			t.timed("tasks.kthick_s", func() { _, ok, err = task.Problem.KThickConnected(1, budget) })
			if err != nil {
				return fmt.Errorf("%s: %w", task.Problem.Name, err)
			}
			if want, pinned := zooSolvable[task.Problem.Name]; !pinned || ok != want {
				return fmt.Errorf("%s: 1-thick-connected = %v, pinned %v (pinned at all: %v)", task.Problem.Name, ok, want, pinned)
			}
		}
		for _, c := range []struct {
			name  string
			delta layers.DeltaFunc
			want  taskVerdict
		}{{"2-set agreement", twoSet, twoSetWant}, {"consensus", consensus, consensusWant}} {
			var w *layers.TaskWitness
			var err error
			t.timed("decision.certify_task_s", func() { w, err = layers.CertifyTask(m, inits, c.delta, 1, 0) })
			if err != nil {
				return fmt.Errorf("CertifyTask %s: %w", c.name, err)
			}
			wl := -1
			if w.Exec != nil {
				wl = w.Exec.Len()
			}
			if got := (taskVerdict{kind: w.Kind, explored: w.Explored, witness: wl}); got != c.want {
				return fmt.Errorf("CertifyTask %s: %+v, want %+v", c.name, got, c.want)
			}
		}
		return nil
	}
}

// faultPoints and faultKinds are the faults faulted_resume injects: each
// supervised run arms one, at a point and of a kind drawn from the seed, on
// a hit in [1, 3] that chaos.PlanFor derives from the seed.
var (
	faultPoints = []string{"explore.layer", "field.layer", "certify.visit"}
	faultKinds  = []chaos.Kind{chaos.KindCancel, chaos.KindPanic}
)

// faultedResume certifies the FloodSet(t+1) case of every sync pool entry
// under the supervisor. Every fault fires once and the second attempt
// succeeds; a cancellation carries a checkpoint, so that attempt resumes
// from it, while a panic carries none and the retry starts over. The
// verdict must equal the fault-free one.
func faultedResume(t *tracer, s *stream) func() error {
	var pool [][]graphCase
	for _, entry := range syncPool {
		pool = append(pool, entry[:1])
	}
	cases := buildPool(pool, s)
	type fault struct {
		point string
		kind  chaos.Kind
		seed  uint64
	}
	faults := make([]fault, len(cases))
	for i := range faults {
		faults[i] = fault{
			point: faultPoints[s.next()%uint64(len(faultPoints))],
			kind:  faultKinds[s.next()%uint64(len(faultKinds))],
			seed:  s.next(),
		}
	}
	return func() error {
		for i, c := range cases {
			f := faults[i]
			plan := chaos.PlanFor(f.seed, f.point, f.kind, 3)
			sup := &layers.Supervisor{Policy: layers.Policy{MaxAttempts: 3, BaseBackoff: time.Nanosecond, Seed: f.seed}}
			var (
				out *outcome
				st  resilient.RunStats
				err error
			)
			chaos.Arm(plan)
			t.timed("resilient.supervise_s", func() {
				st, err = sup.Run(layers.Background(), c.name, func(a *layers.Attempt) error {
					start := time.Now()
					// Deferred, so that an attempt a panic ends is timed too;
					// out is set only by the attempt that succeeds.
					defer func() {
						d := time.Since(start).Seconds()
						if a.N == 1 {
							t.add("resilient.attempt_s", d)
						}
						if out != nil {
							t.add("resilient.resume_s", d)
						}
					}()
					// Cancel and panic faults are retried, never degraded, so
					// a.Workers is always GOMAXPROCS, which the engines
					// default to.
					o, perr := t.pipeline(a.Ctx, c.m, c.bound)
					out = o
					return perr
				})
			})
			chaos.Disarm()
			if err != nil {
				return fmt.Errorf("%s under %s %s: %w", c.name, f.kind, f.point, err)
			}
			wantResumes := 0
			if f.kind == chaos.KindCancel {
				wantResumes = 1
			}
			if fired := len(plan.Fired()); fired != 1 || st.Attempts != 2 || st.Resumes != wantResumes {
				return fmt.Errorf("%s under %s %s: %d faults fired, %d attempts, %d resumes; want 1, 2, %d",
					c.name, f.kind, f.point, fired, st.Attempts, st.Resumes, wantResumes)
			}
			t.add("resilient.attempts", float64(st.Attempts))
			t.add("resilient.resumes", float64(st.Resumes))
			if err := t.check(c.graphCase, out); err != nil {
				return err
			}
		}
		return nil
	}
}
