package valence_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/valence"
)

// refAdversary is the recursive reference for sim.Adversary: the first
// successor bivalent within horizon(run depth), else the first successor.
type refAdversary struct {
	o       *valence.Oracle
	horizon valence.HorizonFunc
	depth   int
}

func (a *refAdversary) Name() string { return "adversary" }

func (a *refAdversary) Next(_ core.State, succs []core.Succ) (int, bool) {
	a.depth++
	h := a.horizon(a.depth)
	for i, s := range succs {
		if a.o.Bivalent(s.State, h) {
			return i, true
		}
	}
	if len(succs) == 0 {
		return 0, false
	}
	return 0, true
}

// diffCase is one model configuration the field is pinned on, with the
// bivalence chain target and the layercheck depth to analyze. cliHorizons
// marks the documented bivalence/layercheck invocations, whose output must
// also equal what the recursive engine printed under the commands' old
// horizon schedules: max(bound-d, 1) at chain depth d, and max(bound-d, 1)
// for the successors of a depth-d state.
type diffCase struct {
	spec        cli.Spec
	target      int
	depth       int
	cliHorizons bool
}

func diffCases() []diffCase {
	var cases []diffCase
	for _, model := range cli.Models() {
		for bound := 1; bound <= 3; bound++ {
			cases = append(cases, diffCase{
				spec:   cli.Spec{Model: model, N: 3, T: 1, Bound: bound},
				target: bound - 1,
				depth:  1,
			})
		}
	}
	// The usage lines of cmd/bivalence and cmd/layercheck.
	doc := []diffCase{
		{spec: cli.Spec{Model: "mobile", N: 3, T: 1, Bound: 2}, target: 1},
		{spec: cli.Spec{Model: "shmem", N: 3, T: 1, Bound: 1}, target: 0},
		{spec: cli.Spec{Model: "asyncmp", N: 3, T: 1, Bound: 1}, target: 2},
		{spec: cli.Spec{Model: "mobile", N: 3, T: 1, Bound: 2}, depth: 0, target: 1},
		{spec: cli.Spec{Model: "sync-st", N: 4, T: 2, Bound: 3}, depth: 1, target: 2},
		{spec: cli.Spec{Model: "shmem", N: 3, T: 1, Bound: 2}, depth: 0, target: 1},
	}
	for _, c := range doc {
		c.cliHorizons = true
		cases = append(cases, c)
	}
	return cases
}

// TestFieldMatchesRecursiveReference pins every field-backed valence
// answer to the recursive reference engine at the field's horizons (B-d at
// depth d for a graph explored to B), for all eight CLI models at n=3 and
// bounds 1–3, graded graphs and not:
//   - Field.BivalentChain against BivalentChain, on the graph explored to
//     max(bound, target+1);
//   - Field.AnalyzeNode of every state down to the layercheck depth
//     against AnalyzeLayer, on the graph explored to max(bound+1, depth+2);
//   - Field.Width against BivalenceWidth;
//   - the field-backed sim.Adversary against the oracle-backed one, run
//     from every initial state to the graph's depth.
func TestFieldMatchesRecursiveReference(t *testing.T) {
	for _, c := range diffCases() {
		s := c.spec
		name := fmt.Sprintf("%s-n%d-t%d-b%d-target%d-depth%d", s.Model, s.N, s.T, s.Bound, c.target, c.depth)
		if c.cliHorizons {
			name += "-cli"
		}
		t.Run(name, func(t *testing.T) {
			m, err := cli.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			o := valence.NewOracle(m)

			// The chain, the width profile and the adversary.
			chainDepth := max(s.Bound, c.target+1)
			f := fieldTo(t, m, chainDepth)
			horizon := valence.DecreasingHorizon(chainDepth, 0)
			got, err := f.BivalentChain(c.target)
			want, werr := valence.BivalentChain(m, o, horizon, c.target)
			sameChain(t, "chain", got, err, want, werr)
			if c.cliHorizons {
				old, oerr := valence.BivalentChain(m, o, valence.DecreasingHorizon(s.Bound, 1), c.target)
				sameChain(t, "chain (cli horizons)", got, err, old, oerr)
			}
			wp, err := valence.BivalenceWidth(m, o, horizon, chainDepth, 0)
			if err != nil {
				t.Fatal(err)
			}
			if fp := f.Width(); !reflect.DeepEqual(fp, wp) {
				t.Errorf("width %+v != reference %+v", fp, wp)
			}
			g := f.Graph()
			r := &sim.Runner{Model: m, MaxLayers: chainDepth}
			for _, u := range g.Inits {
				fo, err := r.Run(g.States[u], sim.NewAdversary(f))
				if err != nil {
					t.Fatal(err)
				}
				ro, err := r.Run(g.States[u], &refAdversary{o: o, horizon: horizon})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fo.Exec.Actions(), ro.Exec.Actions()) {
					t.Fatalf("adversary run from %s: %v != reference %v", g.Keys[u], fo.Exec.Actions(), ro.Exec.Actions())
				}
			}

			// The layer reports.
			layerDepth := max(s.Bound+1, c.depth+2)
			f = fieldTo(t, m, layerDepth)
			g = f.Graph()
			for d := 0; d <= c.depth; d++ {
				for _, u := range g.Layer(d) {
					got := f.AnalyzeNode(u)
					sameReport(t, fmt.Sprintf("node %d (depth %d)", u, d), got,
						valence.AnalyzeLayer(m, o, g.States[u], layerDepth-d-1))
					if c.cliHorizons {
						sameReport(t, fmt.Sprintf("node %d (depth %d, cli horizon)", u, d), got,
							valence.AnalyzeLayer(m, o, g.States[u], max(s.Bound-d, 1)))
					}
				}
			}
		})
	}
}

// sameChain fails t unless the two chain constructions agree: the same
// error, and otherwise the same states, actions, reach and stuck report.
func sameChain(t *testing.T, what string, got *valence.Chain, gerr error, want *valence.Chain, werr error) {
	t.Helper()
	if gerr != nil || werr != nil {
		if gerr != werr {
			t.Fatalf("%s: error %v != reference %v", what, gerr, werr)
		}
		return
	}
	if got.Reached != want.Reached || got.Exec.Init.Key() != want.Exec.Init.Key() ||
		!reflect.DeepEqual(got.Exec.Actions(), want.Exec.Actions()) ||
		got.Exec.Last().Key() != want.Exec.Last().Key() {
		t.Fatalf("%s: reached %d via %v != reference %d via %v",
			what, got.Reached, got.Exec.Actions(), want.Reached, want.Exec.Actions())
	}
	if (got.Stuck == nil) != (want.Stuck == nil) {
		t.Fatalf("%s: stuck %v != reference %v", what, got.Stuck != nil, want.Stuck != nil)
	}
	if got.Stuck != nil {
		sameReport(t, what+" stuck layer", got.Stuck, want.Stuck)
	}
}

// sameReport fails t unless two layer reports agree field for field, with
// states compared by key.
func sameReport(t *testing.T, what string, got, want *valence.LayerReport) {
	t.Helper()
	keys := func(r *valence.LayerReport) []string {
		out := make([]string, len(r.States))
		for i, x := range r.States {
			out[i] = x.Key()
		}
		return out
	}
	if !reflect.DeepEqual(keys(got), keys(want)) || !reflect.DeepEqual(got.Actions, want.Actions) {
		t.Fatalf("%s: layer states or actions differ from the reference", what)
	}
	g, w := *got, *want
	g.States, w.States = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: report %+v != reference %+v", what, g, w)
	}
}
