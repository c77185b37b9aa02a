package layers_test

// Exercises every facade entry point not already covered by the experiment
// tests, so the public API surface stays wired to the internals.

import (
	"strings"
	"testing"

	layers "repro"
)

func TestFacadeModelConstructors(t *testing.T) {
	models := []layers.Model{
		layers.SyncS1(layers.FloodSet{Rounds: 2}, 3),
		layers.AsyncSynchronic(layers.MPFlood{Phases: 1}, 3),
		layers.SyncStMulti(layers.FloodSet{Rounds: 2}, 3, 1, 1),
		layers.SyncStGeneral(layers.FloodSet{Rounds: 2}, 3, 1),
		layers.MobileFull(layers.FloodSet{Rounds: 2}, 3),
	}
	for _, m := range models {
		if m.Name() == "" {
			t.Error("unnamed model")
		}
		inits := m.Inits()
		if len(inits) != 8 {
			t.Errorf("%s: %d inits", m.Name(), len(inits))
		}
		if len(m.Successors(inits[0])) == 0 {
			t.Errorf("%s: empty layer", m.Name())
		}
	}
}

func TestFacadeAnalysisHelpers(t *testing.T) {
	m := layers.MobileS1(layers.FloodSet{Rounds: 2}, 3)
	g, err := layers.ExploreID(m, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() <= 8 {
		t.Errorf("explored %d states", g.Len())
	}
	x, y := m.Inits()[0], m.Inits()[1]
	if !layers.AgreeModulo(x, y, 0) {
		t.Error("inits 0 and 1 should agree modulo process 0")
	}
	if h := layers.ConstHorizon(3); h(0) != 3 || h(9) != 3 {
		t.Error("ConstHorizon broken")
	}
	o := layers.NewOracle(m)
	p, err := layers.BivalenceWidth(m, o, layers.ConstHorizon(2), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.States[0] != 8 {
		t.Errorf("width profile depth 0 = %d states", p.States[0])
	}
	w, err := layers.CertifyFrom(m, []layers.State{x}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != layers.OK {
		t.Errorf("all-zero root alone should certify (no disagreement reachable): %v", w.Kind)
	}
	d, err := layers.MeasureDecisionDepth(m, []layers.State{x}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Undecided != 0 || d.Min != 2 {
		t.Errorf("decision depth from all-zero root: min=%d undecided=%d", d.Min, d.Undecided)
	}
}

func TestFacadeSimHelpers(t *testing.T) {
	m := layers.MobileS1(layers.FloodSet{Rounds: 2}, 3)
	r := &layers.Runner{Model: m, MaxLayers: 2}
	out, err := r.Run(m.Inits()[0], layers.NewRandomScheduler(7))
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllDecided {
		t.Error("all-zero run undecided")
	}
	o := layers.NewOracle(m)
	adv := layers.NewAdversaryScheduler(o, layers.DecreasingHorizon(2, 1))
	if adv.Name() == "" {
		t.Error("unnamed scheduler")
	}
	if s := layers.FormatState(m.Inits()[0]); !strings.Contains(s, "p0=⊥") {
		t.Errorf("FormatState = %q", s)
	}
	diff := layers.CompareStates(m.Inits()[0], m.Inits()[1])
	if diff.SimilarVia != 0 {
		t.Errorf("CompareStates.SimilarVia = %d", diff.SimilarVia)
	}
	ac := layers.NewAsyncCluster(layers.MPFlood{Phases: 1}, []int{0, 1, 1})
	defer ac.Close()
	if _, err := ac.Phase(0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTopologyHelpers(t *testing.T) {
	s := layers.FromValues([]int{0, 1})
	c := layers.NewComplex(s)
	if !c.Has(s) || c.MaxSize() != 2 {
		t.Error("complex construction broken")
	}
	task := layers.BinaryConsensusTask(3)
	if !strings.Contains(task.Problem.Name, "consensus") {
		t.Errorf("task name %q", task.Problem.Name)
	}
	cover := layers.ConsensusCovering(3)
	m := layers.SyncSt(layers.FloodSet{Rounds: 2}, 3, 1)
	decided, err := layers.CollectDecidedSimplexes(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decided {
		if !cover.O0.Has(d) && !cover.O1.Has(d) {
			t.Errorf("decided simplex %s outside the consensus covering", d)
		}
	}
}

func TestFacadeValidators(t *testing.T) {
	if vs := layers.ValidateSyncProtocol(layers.FloodSet{Rounds: 2}, 3, 3); len(vs) != 0 {
		t.Errorf("FloodSet flagged: %v", vs)
	}
	vs := layers.ValidateSyncProtocol(layers.FlickerDecider{}, 3, 3)
	if len(vs) == 0 {
		t.Error("flicker protocol passed validation")
	}
	if vs[0].String() == "" {
		t.Error("empty violation string")
	}
	if vs := layers.ValidateSMProtocol(layers.SMVote{Phases: 2}, 3, 2); len(vs) != 0 {
		t.Errorf("SMVote flagged: %v", vs)
	}
}
