package sim_test

import (
	"strings"
	"testing"

	"repro/internal/asyncmp"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

func TestRunnerFailureFree(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: tt + 1}
	m := syncmp.NewSt(p, n, tt)
	r := &sim.Runner{Model: m, MaxLayers: 5}
	out, err := r.Run(m.Initial([]int{1, 0, 1}), sim.FirstAction{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllDecided || !out.Agreement {
		t.Errorf("failure-free run: decided=%v agreement=%v", out.AllDecided, out.Agreement)
	}
	if out.DecisionLayer != tt+1 {
		t.Errorf("DecisionLayer = %d, want %d", out.DecisionLayer, tt+1)
	}
	for _, v := range out.Decided {
		if v != 0 {
			t.Errorf("decisions = %v, want all 0", out.Decided)
		}
	}
}

func TestRunnerCrashScheduler(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: tt + 1}
	m := syncmp.NewSt(p, n, tt)
	r := &sim.Runner{Model: m, MaxLayers: 5}
	// Process 0 omits to everyone in round 1; inputs (0,1,1): survivors
	// never see the 0 and decide 1.
	sched := &sim.Crash{Process: 0, AtLayer: 1, OmitTo: n}
	out, err := r.Run(m.Initial([]int{0, 1, 1}), sched)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Agreement {
		t.Error("agreement must hold among non-failed processes")
	}
	if out.Decided[1] != 1 || out.Decided[2] != 1 {
		t.Errorf("survivors decided %v, want 1", out.Decided)
	}
}

func TestRunnerScriptReplay(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: tt} // too fast: a violation exists
	m := syncmp.NewSt(p, n, tt)
	w, err := valence.Certify(nil, m, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == valence.OK {
		t.Fatal("expected a violation witness")
	}
	r := &sim.Runner{Model: m, MaxLayers: len(w.Exec.Steps)}
	out, err := r.Run(w.Exec.Init, sim.NewScript(w.Exec.Actions()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Agreement {
		t.Error("replaying the agreement-violation witness did not violate agreement")
	}
}

func TestRunnerAdversaryPostponesDecision(t *testing.T) {
	const n, rounds = 3, 3
	p := protocols.FloodSet{Rounds: rounds}
	m := mobile.New(p, n)
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	r := &sim.Runner{Model: m, MaxLayers: rounds - 1}
	adv := sim.NewAdversary(f)
	// Start from a bivalent initial state.
	u, _, ok := f.BivalentAtBound(0)
	if !ok {
		t.Fatal("no bivalent initial state")
	}
	init := g.States[u]
	out, err := r.Run(init, adv)
	if err != nil {
		t.Fatal(err)
	}
	if out.AllDecided {
		t.Error("adversary failed to postpone decision within the pre-decision window")
	}
}

func TestRunManyStats(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: tt + 1}
	m := syncmp.NewSt(p, n, tt)
	r := &sim.Runner{Model: m, MaxLayers: tt + 1}
	st, err := r.RunMany(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 3*(1<<n) {
		t.Errorf("Runs = %d, want %d", st.Runs, 3*(1<<n))
	}
	if st.Violations != 0 {
		t.Errorf("violations = %d, want 0 (FloodSet t+1 is correct)", st.Violations)
	}
	if st.Decided != st.Runs {
		t.Errorf("decided = %d of %d, want all", st.Decided, st.Runs)
	}
}

func TestClusterMatchesModel(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: tt + 1}
	inputs := []int{1, 0, 1}

	// Run the goroutine cluster failure-free.
	c := sim.NewCluster(p, inputs)
	defer c.Close()
	decisions, err := c.RunRounds(tt+1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Run the state-space model on the same schedule.
	m := syncmp.NewSt(p, n, tt)
	var x core.State = m.Initial(inputs)
	for r := 0; r < tt+1; r++ {
		x = successor(t, m, x, "noop")
	}
	for i := 0; i < n; i++ {
		v, ok := x.Decided(i)
		if !ok || decisions[i] != v {
			t.Errorf("process %d: cluster=%d model=(%d,%v)", i, decisions[i], v, ok)
		}
	}
	// Local states must agree too.
	states, err := c.States()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if states[i] != x.Local(i) {
			t.Errorf("process %d local state: cluster %q != model %q", i, states[i], x.Local(i))
		}
	}
}

func TestClusterDropRule(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: tt + 1}
	c := sim.NewCluster(p, []int{0, 1, 1})
	defer c.Close()
	// Process 0 fails in round 1 and — as in the Section 6 environment —
	// stays silenced in every later round.
	drop := func(round, from, to int) bool { return from == 0 }
	decisions, err := c.RunRounds(tt+1, drop)
	if err != nil {
		t.Fatal(err)
	}
	if decisions[1] != 1 || decisions[2] != 1 {
		t.Errorf("survivors decided %v, want 1", decisions)
	}
}

func TestClusterCloseIdempotentAndSafe(t *testing.T) {
	p := protocols.FloodSet{Rounds: 2}
	c := sim.NewCluster(p, []int{0, 1})
	c.Close()
	c.Close() // idempotent
	if _, err := c.Step(nil); err == nil {
		t.Error("Step after Close must fail")
	}
	if _, err := c.States(); err == nil {
		t.Error("States after Close must fail")
	}
	if !strings.Contains(c.String(), "floodset") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestStarveScheduler(t *testing.T) {
	const n, phases = 3, 2
	m := asyncmp.New(protocols.MPFlood{Phases: phases}, n)
	r := &sim.Runner{Model: m, MaxLayers: 4}
	out, err := r.Run(m.Initial([]int{0, 1, 1}), sim.Starve{Process: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The starved process never takes a phase: undecided forever.
	if out.Decided[0] != core.Undecided {
		t.Errorf("starved process decided %d", out.Decided[0])
	}
	// The others completed their phases and decided.
	for _, i := range []int{1, 2} {
		if out.Decided[i] == core.Undecided {
			t.Errorf("non-starved process %d undecided after %d layers", i, out.Layers)
		}
	}
	// Every chosen action excluded process 0.
	for _, a := range out.Exec.Actions() {
		if strings.Contains(a, "0") {
			t.Errorf("starver chose action %q mentioning process 0", a)
		}
	}
}

func TestStarveStopsWhenImpossible(t *testing.T) {
	// The synchronous S^t model has no process-free actions ("noop"
	// involves everyone sending); every action label lacking the digit
	// still schedules the process, but Starve only inspects labels — in
	// syncmp the noop label has no digits, so Starve picks it forever;
	// the semantics still runs everyone. This documents that Starve is
	// only meaningful for permutation-layered models.
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1)
	r := &sim.Runner{Model: m, MaxLayers: 3}
	out, err := r.Run(m.Initial([]int{0, 1, 1}), sim.Starve{Process: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Decided[0] == core.Undecided {
		t.Error("in the synchronous model the 'starved' process still runs and decides")
	}
}

func TestSchedulerNamesAndEdges(t *testing.T) {
	names := []string{
		sim.NewRandom(1).Name(),
		sim.NewScript(nil).Name(),
		sim.FirstAction{}.Name(),
		(&sim.Crash{Process: 1, AtLayer: 2, OmitTo: 3}).Name(),
		sim.Starve{Process: 0}.Name(),
	}
	for _, n := range names {
		if n == "" {
			t.Error("unnamed scheduler")
		}
	}
	// Edge cases: empty successor lists stop every scheduler.
	if _, ok := sim.NewRandom(1).Next(nil, nil); ok {
		t.Error("random scheduler continued with no successors")
	}
	if _, ok := (sim.FirstAction{}).Next(nil, nil); ok {
		t.Error("first-action scheduler continued with no successors")
	}
	// Script: exhaustion and mismatch.
	s := sim.NewScript([]string{"a"})
	if s.Remaining() != 1 {
		t.Errorf("Remaining = %d", s.Remaining())
	}
	if _, ok := s.Next(nil, []core.Succ{{Action: "b"}}); ok {
		t.Error("script matched a wrong action")
	}
	if _, ok := s.Next(nil, []core.Succ{{Action: "a"}}); !ok {
		t.Error("script refused its own action")
	}
	if _, ok := s.Next(nil, []core.Succ{{Action: "a"}}); ok {
		t.Error("exhausted script continued")
	}
	// Cluster round counter.
	p := protocols.FloodSet{Rounds: 2}
	c := sim.NewCluster(p, []int{0, 1})
	defer c.Close()
	if c.Round() != 0 {
		t.Errorf("Round = %d before any step", c.Round())
	}
	if _, err := c.Step(nil); err != nil {
		t.Fatal(err)
	}
	if c.Round() != 1 {
		t.Errorf("Round = %d after one step", c.Round())
	}
}

// successor returns x's successor under the action labeled action in m.
func successor(t *testing.T, m core.Model, x core.State, action string) core.State {
	t.Helper()
	for _, s := range m.Successors(x) {
		if s.Action == action {
			return s.State
		}
	}
	t.Fatalf("%s: no action %q from %s", m.Name(), action, x.Key())
	return nil
}
