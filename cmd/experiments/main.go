// Command experiments regenerates the measured tables in EXPERIMENTS.md:
// it runs every experiment (E1..E11) and prints the paper-claim-vs-measured
// record. All computations are deterministic; expect the output to match
// the committed EXPERIMENTS.md numbers.
//
// Usage:
//
//	experiments                          # run everything
//	experiments -only E5                 # run one experiment
//	experiments -stats -journal run.jsonl  # with engine counters + event journal
//
// Runs are interruptible: SIGINT (or an elapsed -deadline) stops the
// in-flight engine at its next poll point, saves the -checkpoint
// snapshot, and exits nonzero; -resume picks the interrupted computation
// back up with results identical to an uninterrupted run:
//
//	experiments -only E5 -deadline 10s -checkpoint e5.ckpt
//	experiments -only E5 -resume e5.ckpt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	layers "repro"
	"repro/internal/cli"
	"repro/internal/decision"
	"repro/internal/protocols"
	"repro/internal/tasks"
	"repro/internal/valence"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "run a single experiment (E1..E11)")
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
	all := []struct {
		id  string
		fn  func(*layers.Ctx) error
		hdr string
	}{
		{"E1", e1, "Lemma 3.6: structure of Con_0"},
		{"E2", e2, "Lemma 5.1 + Corollary 5.2: mobile failures"},
		{"E3", e3, "Lemma 5.3 + Corollary 5.4: shared memory, synchronic layering"},
		{"E4", e4, "Permutation layering (async message passing)"},
		{"E5", e5, "Corollary 6.3: the t+1-round lower bound"},
		{"E6", e6, "Lemma 6.4: fast-protocol univalence"},
		{"E7", e7, "Theorem 7.2 / Corollary 7.3: 1-thick connectivity"},
		{"E8", e8, "Lemma 7.6 / Theorem 7.7: diameter growth"},
		{"E9", e9, "Extensions: wasted faults, early decision, IIS subdivision"},
		{"E10", e10, "General decision problems: the k-set boundary"},
		{"E11", e11, "Common knowledge at decision (Dwork–Moses)"},
	}
	// With -retries the per-experiment run goes through the supervisor:
	// a failure in the ErrPartial family (panic, deadline, chaos fault,
	// exhausted budget) backs off, resumes from the attempt's checkpoint,
	// and tries again.
	sup := resFlags.Supervisor()
	runOne := func(id string, fn func(*layers.Ctx) error) error {
		if resFlags.Retries <= 0 {
			return fn(ctx)
		}
		_, err := sup.Run(ctx, id, func(a *layers.Attempt) error {
			return fn(a.Ctx)
		})
		return err
	}
	ran := false
	for _, e := range all {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		ran = true
		fmt.Printf("== %s — %s ==\n", e.id, e.hdr)
		if err := runOne(e.id, e.fn); err != nil {
			return resFlags.Finish(fmt.Errorf("%s: %w", e.id, err))
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want E1..E11)", *only)
	}
	return nil
}

func e1(ctx *layers.Ctx) error {
	fmt.Println("n  |Con0|  s-diam  connected  bivalent-init")
	for n := 2; n <= 5; n++ {
		m := layers.MobileS1(layers.FloodSet{Rounds: 2}, n)
		inits := m.Inits()
		d, conn := valence.SetSDiameter(inits)
		g, err := layers.ExploreIDCtx(ctx, m, 2, 0, 0)
		if err != nil {
			return err
		}
		f, err := layers.NewFieldCtx(ctx, g)
		if err != nil {
			return err
		}
		found := false
		for _, u := range g.Layer(0) {
			if f.Bivalent(u) {
				found = true
				break
			}
		}
		fmt.Printf("%d  %-6d  %-6d  %-9v  %v\n", n, len(inits), d, conn, found)
		if !conn || !found {
			return fmt.Errorf("n=%d: Lemma 3.6 failed", n)
		}
	}
	return nil
}

func e2(ctx *layers.Ctx) error {
	fmt.Println("n  B  layers-sim-conn  verdict               witness-depth  visits")
	for _, cfg := range []struct{ n, b int }{{3, 2}, {3, 3}, {4, 2}} {
		m := layers.MobileS1(layers.FloodSet{Rounds: cfg.b}, cfg.n)
		// The initial layers' successors are judged within horizon B, so
		// the field's graph goes one layer past the certified bound.
		g, err := layers.ExploreIDCtx(ctx, m, cfg.b+1, 0, 0)
		if err != nil {
			return err
		}
		f, err := layers.NewFieldCtx(ctx, g)
		if err != nil {
			return err
		}
		simOK := true
		for _, u := range g.Inits {
			if r := f.AnalyzeNode(u); !r.SimilarityConnected || !r.ValenceConnected {
				simOK = false
			}
		}
		w, err := valence.Certify(ctx, m, cfg.b, 0)
		if err != nil {
			return err
		}
		if w.Kind == layers.OK {
			return fmt.Errorf("consensus certified in M^mf")
		}
		fmt.Printf("%d  %d  %-15v  %-20s  %-13d  %d\n", cfg.n, cfg.b, simOK, w.Kind, w.Exec.Len(), w.Explored)
	}
	return nil
}

func e3(ctx *layers.Ctx) error {
	const n = 3
	// Bridge check over all inputs and j.
	m := layers.SharedMemory(layers.SMVote{Phases: 2}, n)
	bridges := 0
	for a := 0; a < 1<<n; a++ {
		x := m.Initial([]int{a & 1, (a >> 1) & 1, (a >> 2) & 1})
		for j := 0; j < n; j++ {
			y := m.ApplyAbsent(m.Apply(x, j, n), j)
			yp := m.Apply(m.ApplyAbsent(x, j), j, 0)
			if !layers.AgreeModulo(y, yp, j) {
				return fmt.Errorf("bridge failed at inputs %03b j=%d", a, j)
			}
			bridges++
		}
	}
	fmt.Printf("bridge x(j,n)(j,A) ≡_j x(j,A)(j,0): %d/%d instances hold\n", bridges, bridges)
	fmt.Println("n  P  verdict")
	for _, ph := range []int{1, 2} {
		mm := layers.SharedMemory(layers.SMVote{Phases: ph}, n)
		w, err := valence.Certify(ctx, mm, ph, 0)
		if err != nil {
			return err
		}
		if w.Kind == layers.OK {
			return fmt.Errorf("consensus certified in M^rw")
		}
		fmt.Printf("%d  %d  %s\n", n, ph, w.Kind)
	}
	return nil
}

func e4(ctx *layers.Ctx) error {
	const n = 3
	fi := layers.AsyncMessagePassing(layers.MPFullInfo{}, n)
	x := fi.Initial([]int{0, 1, 1})
	yTop := fi.Sequential(fi.Sequential(x, []int{0, 1, 2}), []int{0, 1})
	yBot := fi.Sequential(fi.Sequential(x, []int{0, 1}), []int{2, 0, 1})
	fmt.Printf("diamond exact state equality: %v\n", yTop.Key() == yBot.Key())
	succs := fi.Successors(x)
	fmt.Printf("|S^per(x)| labeled actions at n=%d: %d\n", n, len(succs))
	fmt.Println("n  P  verdict")
	for _, ph := range []int{1, 2} {
		m := layers.AsyncMessagePassing(layers.MPFlood{Phases: ph}, n)
		w, err := valence.Certify(ctx, m, ph, 0)
		if err != nil {
			return err
		}
		if w.Kind == layers.OK {
			return fmt.Errorf("consensus certified in async MP")
		}
		fmt.Printf("%d  %d  %s\n", n, ph, w.Kind)
	}
	// The IIS extension model (Corollary 7.3's list).
	iisM := layers.IteratedImmediateSnapshot(layers.SMVote{Phases: 1}, n)
	w, err := valence.Certify(ctx, iisM, 1, 0)
	if err != nil {
		return err
	}
	if w.Kind == layers.OK {
		return fmt.Errorf("consensus certified in IIS")
	}
	fmt.Printf("IIS extension model: %s\n", w.Kind)
	return nil
}

func e5(ctx *layers.Ctx) error {
	fmt.Println("n  t  FloodSet(t+1)  visits  FloodSet(t)           witness-depth")
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 1}, {4, 2}, {5, 3}, {6, 2}} {
		// The t-round protocol is refuted first and the t+1-round one
		// certified second, so a -journal run's final certify.done event
		// carries the Explored count this table prints.
		fast := layers.SyncSt(layers.FloodSet{Rounds: cfg.t}, cfg.n, cfg.t)
		wf, err := valence.Certify(ctx, fast, cfg.t, 50_000_000)
		if err != nil {
			return err
		}
		good := layers.SyncSt(layers.FloodSet{Rounds: cfg.t + 1}, cfg.n, cfg.t)
		wg, err := valence.Certify(ctx, good, cfg.t+1, 50_000_000)
		if err != nil {
			return err
		}
		if wg.Kind != layers.OK || wf.Kind == layers.OK {
			return fmt.Errorf("n=%d t=%d: lower-bound story failed", cfg.n, cfg.t)
		}
		fmt.Printf("%d  %d  %-13s  %-6d  %-20s  %d\n",
			cfg.n, cfg.t, wg.Kind, wg.Explored, wf.Kind, wf.Exec.Len())
	}
	return nil
}

func e6(ctx *layers.Ctx) error {
	fmt.Println("n  t  states-checked  all-univalent")
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 2}} {
		rounds := cfg.t + 1
		p := layers.FloodSet{Rounds: rounds}
		m := layers.SyncSt(p, cfg.n, cfg.t)
		g, err := layers.ExploreIDCtx(ctx, m, rounds, 0, 1)
		if err != nil {
			return err
		}
		f, err := layers.NewFieldCtx(ctx, g)
		if err != nil {
			return err
		}
		checked := 0
		for d := 0; d < rounds; d++ {
			for _, u := range g.Layer(d) {
				// The first successor is the failure-free round.
				_, to := g.Out(u)
				if mask := f.Mask(to[0]); mask != valence.V0 && mask != valence.V1 {
					return fmt.Errorf("n=%d t=%d: non-univalent failure-free successor at depth %d", cfg.n, cfg.t, d)
				}
				checked++
			}
		}
		fmt.Printf("%d  %d  %-14d  true\n", cfg.n, cfg.t, checked)
	}
	return nil
}

func e7(ctx *layers.Ctx) error {
	for _, n := range []int{2, 3} {
		fmt.Printf("n=%d:\n", n)
		for _, task := range tasks.Zoo(n) {
			budget := task.SubproblemBudget
			if budget == 0 {
				budget = 1_000_000
			}
			_, ok, err := task.Problem.KThickConnected(1, budget)
			if err != nil {
				return fmt.Errorf("%s: %w", task.Problem.Name, err)
			}
			verdict := "unsolvable"
			if ok {
				verdict = "solvable"
			}
			mark := "ok"
			if ok != task.Solvable1Resilient {
				mark = "MISMATCH"
			}
			fmt.Printf("  %-28s %-11s (%s)\n", task.Problem.Name, verdict, mark)
		}
	}
	// The necessity direction, measured on a protocol that solves its task:
	// FloodSet(1) solves 2-set agreement in M^mf (E10), so the decided
	// outputs over every similarity-connected set of binary initial states
	// must be 1-thick connected.
	const n, k, depth = 3, 1, 1
	m := layers.MobileS1(layers.FloodSet{Rounds: 1}, n)
	r, err := decision.CheckThickNecessity(ctx, m, m.Inits(), n, k, depth, 0)
	if err != nil {
		return err
	}
	fmt.Printf("necessity: M^mf + 1-round flooding (n=%d, depth %d): decided outputs %d-thick connected over %d of %d similarity-connected initial-state sets\n",
		n, depth, k, r.Connected, r.Subsets)
	if r.Connected != r.Subsets {
		return fmt.Errorf("necessity fails on the initial states %v", r.FirstFailure)
	}
	return nil
}

func e8(ctx *layers.Ctx) error {
	const n, t, depth = 3, 2, 2
	m := layers.SyncSt(protocols.FullInfo{}, n, t)
	g, err := layers.ExploreIDCtx(ctx, m, depth, 0, 1)
	if err != nil {
		return err
	}
	fmt.Println("depth  states  s-diam  max-layer-dY  lemma7.6-bound  paper-dY=2(n-m)")
	dPrev, _ := valence.SetSDiameter(g.StatesAtDepth(0))
	fmt.Printf("%-5d  %-6d  %-6d  %-12s  %-14s  %s\n", 0, len(g.StatesAtDepth(0)), dPrev, "-", "-", "-")
	for d := 1; d <= depth; d++ {
		dY := 0
		for _, x := range g.StatesAtDepth(d - 1) {
			states, _ := valence.Layer(m, x)
			if ld, _ := valence.SetSDiameter(states); ld > dY {
				dY = ld
			}
		}
		bound := dPrev*dY + dPrev + dY
		dCur, _ := valence.SetSDiameter(g.StatesAtDepth(d))
		if dCur > bound {
			return fmt.Errorf("depth %d: measured %d exceeds bound %d", d, dCur, bound)
		}
		fmt.Printf("%-5d  %-6d  %-6d  %-12d  %-14d  %d\n",
			d, len(g.StatesAtDepth(d)), dCur, dY, bound, 2*(n-(d-1)))
		dPrev = dCur
	}
	fmt.Printf("Theorem 7.7 arithmetic: d(I)=3, n=3: t=1 -> %d, t=2 -> %d\n",
		decision.DiameterBound(3, 3, 1), decision.DiameterBound(3, 3, 2))
	return nil
}

func e9(ctx *layers.Ctx) error {
	// E9a: wasted faults in the multi-failure layering.
	{
		const n, tt, c = 4, 2, 2
		rounds := tt + 1
		m := layers.SyncStMulti(protocols.FloodSet{Rounds: rounds}, n, tt, c)
		g, err := layers.ExploreIDCtx(ctx, m, rounds, 0, 1)
		if err != nil {
			return err
		}
		field, err := layers.NewFieldCtx(ctx, g)
		if err != nil {
			return err
		}
		checked, bivalent := 0, 0
		for d := 0; d <= rounds; d++ {
			for _, u := range g.Layer(d) {
				checked++
				if !field.Bivalent(u) {
					continue
				}
				x := g.States[u]
				bivalent++
				f := 0
				for i := 0; i < n; i++ {
					if x.FailedAt(i) {
						f++
					}
				}
				if f < d || f > tt-1 {
					return fmt.Errorf("bivalent state at round %d with %d failures violates r <= f <= t-1", d, f)
				}
			}
		}
		fmt.Printf("wasted faults (n=%d t=%d c=%d): %d states, %d bivalent, all satisfy r <= f <= t-1\n",
			n, tt, c, checked, bivalent)
	}
	// E9b: early decision.
	{
		const n, tt = 4, 2
		m := layers.SyncSt(layers.EarlyFloodSet{MaxRounds: tt + 1}, n, tt)
		w, err := valence.Certify(ctx, m, tt+1, 0)
		if err != nil {
			return err
		}
		r := &layers.Runner{Model: m, MaxLayers: tt + 2}
		out, err := r.Run(m.Inits()[1], layers.FirstAction{})
		if err != nil {
			return err
		}
		fmt.Printf("early decision (n=%d t=%d): certify=%s, failure-free decision layer=%d (plain FloodSet: %d)\n",
			n, tt, w.Kind, out.DecisionLayer, tt+1)
		if w.Kind != layers.OK {
			return fmt.Errorf("EarlyFloodSet refuted")
		}
	}
	// E9c: the IIS chromatic subdivision.
	{
		const n = 3
		m := layers.IteratedImmediateSnapshot(layers.SMFullInfo{}, n)
		st := m.Stats(m.Initial([]int{0, 1, 1}))
		fmt.Printf("IIS one-round view complex (n=%d): %d top simplexes, %d vertices, thick-connected=%v, pseudomanifold=%v\n",
			n, st.TopSimplexes, st.Vertices, st.ThickConnected, st.Pseudomanifold)
		if st.TopSimplexes != 13 || !st.ThickConnected || !st.Pseudomanifold {
			return fmt.Errorf("chromatic subdivision structure wrong")
		}
	}
	return nil
}

func e10(ctx *layers.Ctx) error {
	const n = 3
	m := layers.MobileS1(layers.FloodSet{Rounds: 1}, n)
	// Ternary inputs.
	var inits []layers.State
	for a := 0; a < 27; a++ {
		v := a
		in := make([]int, n)
		for i := 0; i < n; i++ {
			in[i] = v % 3
			v /= 3
		}
		inits = append(inits, m.Initial(in))
	}
	two := tasks.KSetAgreement(n, 2).Problem.Delta
	one := tasks.BinaryConsensus(n).Problem.Delta
	w2, err := decision.CertifyTask(ctx, m, inits, two, 1, 0)
	if err != nil {
		return err
	}
	w1, err := decision.CertifyTask(ctx, m, inits, one, 1, 0)
	if err != nil {
		return err
	}
	fmt.Printf("M^mf + 1-round flooding, ternary inputs: 2-set agreement = %s; consensus = %s\n", w2.Kind, w1.Kind)
	if w2.Kind != layers.TaskOK || w1.Kind == layers.TaskOK {
		return fmt.Errorf("k-set boundary story failed")
	}
	return nil
}

func e11(ctx *layers.Ctx) error {
	const n, tt = 3, 1
	rounds := tt + 1
	m := layers.SyncSt(layers.FloodSet{Rounds: rounds}, n, tt)
	g, err := layers.ExploreIDCtx(ctx, m, rounds, 0, 0)
	if err != nil {
		return err
	}
	states := make([]layers.State, 0, len(g.Layer(rounds)))
	for _, u := range g.Layer(rounds) {
		states = append(states, g.States[u])
	}
	classes, err := layers.NewKnowledgeClassesLayer(ctx, g, rounds)
	if err != nil {
		return err
	}
	ck := 0
	for _, x := range states {
		v := -1
		for i := 0; i < n; i++ {
			if x.FailedAt(i) {
				continue
			}
			if got, ok := x.Decided(i); ok {
				v = got
				break
			}
		}
		if v >= 0 && classes.CommonKnowledge(x.Key(), layers.DecidedValueFact(v)) {
			ck++
		}
	}
	fmt.Printf("decision round (n=%d t=%d): %d states in %d CK classes; decided value common knowledge at %d/%d states\n",
		n, tt, len(states), classes.Count(), ck, len(states))
	if ck != len(states) {
		return fmt.Errorf("decision without common knowledge")
	}
	return nil
}
