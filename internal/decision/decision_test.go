package decision_test

import (
	"bytes"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// TestConsensusCoveringMatchesBinaryValence cross-validates the Section 7
// machinery against Section 3: in a model/protocol where agreement holds
// (FloodSet(t+1) under S^t), all decided simplexes are constant, the
// consensus covering is a genuine covering, and generalized valence must
// coincide with classical binary valence on every reachable state: the
// generalized masks equal the valence field's.
func TestConsensusCoveringMatchesBinaryValence(t *testing.T) {
	const n, tt = 3, 1
	rounds := tt + 1
	p := protocols.FloodSet{Rounds: rounds}
	m := syncmp.NewSt(p, n, tt)
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := decision.FieldValences(nil, g, decision.ConsensusCovering(n))
	if err != nil {
		t.Fatal(err)
	}
	for u, x := range g.States {
		if bv, gv := bin.Mask(uint32(u)), gen.Mask(uint32(u)); bv != gv {
			t.Errorf("round %d state: binary valence %02b != generalized %02b", x.(*syncmp.State).Round(), bv, gv)
		}
	}
}

// TestMixedSimplexesEscapeConsensusCovering documents the flip side: in
// M^mf FloodSet violates agreement, so mixed decided simplexes exist and
// the consensus covering fails covering condition (i) there.
func TestMixedSimplexesEscapeConsensusCovering(t *testing.T) {
	const n, rounds = 3, 2
	p := protocols.FloodSet{Rounds: rounds}
	m := mobile.New(p, n)
	decided, err := decision.CollectDecidedSimplexes(m, rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := decision.CheckCovering(decision.ConsensusCovering(n), decided); ok {
		t.Error("consensus covering accepted despite agreement violations in M^mf")
	}
	// The min-value covering, by contrast, always covers.
	if ok, reason := decision.CheckCovering(decision.MinValueCovering(decided), decided); !ok {
		t.Errorf("min-value covering rejected: %s", reason)
	}
}

// TestMinValueCoveringUnivalentInputs documents why the min-value covering
// is not useful for chain experiments in M^mf: a 0-input holder is never
// failed at any state (no finite failure), so every mixed-input state is
// univalent toward O_0.
func TestMinValueCoveringUnivalentInputs(t *testing.T) {
	const n, rounds = 3, 2
	p := protocols.FloodSet{Rounds: rounds}
	m := mobile.New(p, n)
	decided, err := decision.CollectDecidedSimplexes(m, rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decision.FieldValences(nil, g, decision.MinValueCovering(decided))
	if err != nil {
		t.Fatal(err)
	}
	mixed, _ := g.NodeByKey(m.Initial([]int{0, 1, 1}).Key())
	if f.Bivalent(mixed) {
		t.Error("mixed-input state bivalent under min-value covering; every full simplex contains the 0")
	}
}

// TestLemma71ChainMobile runs the generalized bivalent chain (Lemma 7.1) in
// M^mf under the by-process covering of the actually-decided simplexes —
// the covering field's BivalentChain — checks it reaches its target, and
// pins it step for step to the recursive reference chain.
func TestLemma71ChainMobile(t *testing.T) {
	const n, rounds = 3, 3
	p := protocols.FloodSet{Rounds: rounds}
	m := mobile.New(p, n)
	decided, err := decision.CollectDecidedSimplexes(m, rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	cov := decision.CoveringByProcess(decided, n-1)
	if ok, reason := decision.CheckCovering(cov, decided); !ok {
		t.Fatalf("by-process covering rejected: %s", reason)
	}
	g, err := core.ExploreIDCtx(nil, m, rounds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decision.FieldValences(nil, g, cov)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.BivalentChain(rounds - 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stuck != nil {
		t.Fatalf("generalized chain stuck at depth %d", ch.Reached)
	}
	if ch.Reached != rounds-1 {
		t.Errorf("reached %d, want %d", ch.Reached, rounds-1)
	}
	// The recursive reference at the same horizons builds the same chain.
	ref, err := decision.OracleBivalentChain(m, decision.NewOracle(m, cov), func(d int) int {
		if h := rounds - d; h > 1 {
			return h
		}
		return 1
	}, rounds-1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Reached != ch.Reached || ref.StuckAt >= 0 || ref.Exec.Init.Key() != ch.Exec.Init.Key() {
		t.Fatalf("chain (reached %d) != reference (reached %d, stuck %d)",
			ch.Reached, ref.Reached, ref.StuckAt)
	}
	for i, st := range ref.Exec.Steps {
		if got := ch.Exec.Steps[i]; got.Action != st.Action || got.State.Key() != st.State.Key() {
			t.Fatalf("chain step %d: %q != reference %q", i, got.Action, st.Action)
		}
	}
}

// TestCheckCovering verifies the covering conditions against the actual
// decided simplexes of FloodSet runs in the S^t submodel.
func TestCheckCovering(t *testing.T) {
	const n, tt = 3, 1
	rounds := tt + 1
	p := protocols.FloodSet{Rounds: rounds}
	m := syncmp.NewSt(p, n, tt)
	decided, err := decision.CollectDecidedSimplexes(m, rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(decided) == 0 {
		t.Fatal("no decided simplexes collected")
	}
	cover := decision.ConsensusCovering(n)
	if ok, reason := decision.CheckCovering(cover, decided); !ok {
		t.Errorf("consensus covering rejected: %s", reason)
	}
	// A covering missing O_1 entirely must be rejected.
	bad := decision.Covering{O0: cover.O0, O1: cover.O0}
	if ok, _ := decision.CheckCovering(bad, decided); ok {
		t.Error("degenerate covering accepted")
	}
}

// TestDecidedSimplexExcludesFailed checks that failed processes' decisions
// are not part of the decided output simplex.
func TestDecidedSimplexExcludesFailed(t *testing.T) {
	const n, tt = 3, 1
	rounds := tt + 1
	p := protocols.FloodSet{Rounds: rounds}
	m := syncmp.NewSt(p, n, tt)
	x := m.Initial([]int{0, 1, 1})
	// Process 0 omits to everyone, then a failure-free round.
	y := syncmp.ApplyAction(p, x, 0, syncmp.OmitMask(n), true, true)
	z := syncmp.ApplyAction(p, y, 0, 0, true, true)
	s, ok := decision.DecidedSimplex(z)
	if !ok {
		t.Fatal("non-failed processes should all be decided")
	}
	if s.Size() != n-1 {
		t.Errorf("decided simplex size %d, want %d (failed process excluded)", s.Size(), n-1)
	}
	if _, present := s.ValueOf(0); present {
		t.Error("failed process 0 appears in the decided simplex")
	}
}

// TestDiameterBoundRecurrence pins the arithmetic of Theorem 7.7's bound.
func TestDiameterBoundRecurrence(t *testing.T) {
	// t=0: bound is d(I) itself.
	if got := decision.DiameterBound(3, 4, 0); got != 3 {
		t.Errorf("DiameterBound(3,4,0) = %d, want 3", got)
	}
	// One round, n=3: dY = 6; d' = 3*6+3+6 = 27.
	if got := decision.DiameterBound(3, 3, 1); got != 27 {
		t.Errorf("DiameterBound(3,3,1) = %d, want 27", got)
	}
	// Monotone in t.
	prev := 0
	for tt := 0; tt <= 3; tt++ {
		b := decision.DiameterBound(3, 4, tt)
		if b < prev {
			t.Errorf("bound not monotone at t=%d: %d < %d", tt, b, prev)
		}
		prev = b
	}
}

// TestFieldValencesMatchOracle pins the whole-graph generalized-valence
// sweep to the recursive oracle: on graded graphs (both where agreement
// holds, with the consensus covering, and where it breaks, with the
// min-value covering built from the graph's own decided simplexes), every
// node's swept mask must equal Valences at the node's remaining horizon.
func TestFieldValencesMatchOracle(t *testing.T) {
	cases := []struct {
		name  string
		m     core.Model
		depth int
		cover func(g *core.IDGraph, n int) decision.Covering
	}{
		{"syncst-consensus", syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1), 2,
			func(_ *core.IDGraph, n int) decision.Covering { return decision.ConsensusCovering(n) }},
		{"mobile-minvalue", mobile.New(protocols.FloodSet{Rounds: 2}, 3), 2,
			func(g *core.IDGraph, _ int) decision.Covering {
				return decision.MinValueCovering(decision.CollectDecidedSimplexesGraph(g))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := core.ExploreID(tc.m, tc.depth, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Graded() {
				t.Fatal("expected a graded graph")
			}
			cover := tc.cover(g, g.States[0].N())
			f, err := decision.FieldValences(nil, g, cover)
			if err != nil {
				t.Fatal(err)
			}
			o := decision.NewOracle(tc.m, cover)
			for u := 0; u < g.Len(); u++ {
				h := g.Depth - int(g.DepthOf[u])
				if got, want := f.Mask(uint32(u)), o.Valences(g.States[u], h); got != want {
					t.Fatalf("node %d (depth %d): field %02b != oracle %02b",
						u, g.DepthOf[u], got, want)
				}
			}
		})
	}
}

// TestFieldValencesMatchSweepReference pins the covering field to the
// byte-mask sweep it replaced (FieldValencesRef): byte-identical masks for
// every CLI model at n=2 and n=3, graded and non-graded graphs, under the
// consensus, min-value and by-process coverings.
func TestFieldValencesMatchSweepReference(t *testing.T) {
	graded, nonGraded := 0, 0
	for _, n := range []int{2, 3} {
		for _, name := range cli.Models() {
			if name == "sync-st" && n < 3 {
				continue // S^t needs 1 <= t <= n-2
			}
			m, err := cli.Build(cli.Spec{Model: name, N: n, T: 1, Bound: 2})
			if err != nil {
				t.Fatal(err)
			}
			g, err := core.ExploreID(m, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if g.Graded() {
				graded++
			} else {
				nonGraded++
			}
			decided := decision.CollectDecidedSimplexesGraph(g)
			for _, cc := range []struct {
				name  string
				cover decision.Covering
			}{
				{"consensus", decision.ConsensusCovering(n)},
				{"min-value", decision.MinValueCovering(decided)},
				{"by-process", decision.CoveringByProcess(decided, n-1)},
			} {
				f, err := decision.FieldValences(nil, g, cc.cover)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := f.Masks(), decision.FieldValencesRef(g, cc.cover); !bytes.Equal(got, want) {
					t.Errorf("%s n=%d (graded=%v) %s covering: field masks differ from the sweep reference",
						name, n, g.Graded(), cc.name)
				}
			}
		}
	}
	if graded == 0 || nonGraded == 0 {
		t.Fatalf("%d graded and %d non-graded graphs; the reference check needs both", graded, nonGraded)
	}
}

// TestCollectDecidedSimplexesGraph checks the graph-backed collection
// returns exactly the exploration-backed one.
func TestCollectDecidedSimplexesGraph(t *testing.T) {
	const n, rounds = 3, 2
	m := mobile.New(protocols.FloodSet{Rounds: rounds}, n)
	want, err := decision.CollectDecidedSimplexes(m, rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.ExploreID(m, rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := decision.CollectDecidedSimplexesGraph(g)
	if len(got) != len(want) {
		t.Fatalf("%d simplexes != %d", len(got), len(want))
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("missing simplex %s", k)
		}
	}
}

// TestLemma76MeasuredDiameters measures the s-diameter growth of the S^t
// reachable sets (full-information protocol, the strongest instance) and
// checks the Lemma 7.6 recurrence bound d_{m+1} <= d_m*dY + d_m + dY with
// the measured per-layer diameter dY.
func TestLemma76MeasuredDiameters(t *testing.T) {
	const n, tt, depth = 3, 2, 2
	p := protocols.FullInfo{}
	m := syncmp.NewSt(p, n, tt)
	g, err := core.ExploreID(m, depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	dPrev, connPrev := valence.SetSDiameter(g.StatesAtDepth(0))
	if !connPrev {
		t.Fatal("initial states not similarity connected")
	}
	for d := 1; d <= depth; d++ {
		// Measured per-layer diameter: max s-diameter of S(x) over states x
		// at depth d-1.
		dY := 0
		for _, x := range g.StatesAtDepth(d - 1) {
			states, _ := valence.Layer(m, x)
			if ld, _ := valence.SetSDiameter(states); ld > dY {
				dY = ld
			}
		}
		bound := dPrev*dY + dPrev + dY
		states := collectToDepth(g, d)
		dCur, _ := valence.SetSDiameter(states)
		if dCur > bound {
			t.Errorf("depth %d: measured s-diameter %d exceeds Lemma 7.6 bound %d (dPrev=%d dY=%d)",
				d, dCur, bound, dPrev, dY)
		}
		dPrev = dCur
	}
}

// collectToDepth returns the states first reached at exactly depth d. With
// the round number in the environment, every state's depth is unique.
func collectToDepth(g *core.IDGraph, d int) []core.State {
	return g.StatesAtDepth(d)
}
