package layers_test

// The experiment suite through the public API: fast configurations of
// E1..E10 as tests, so `go test .` replays the paper's claims end to end
// using only exported identifiers. The heavier parameter sweeps live in the
// internal packages' tests and in bench_test.go.

import (
	"strings"
	"testing"

	layers "repro"
	"repro/internal/valence"
)

func TestPublicAPIMobileStory(t *testing.T) {
	const n, rounds = 3, 2
	m := layers.MobileS1(layers.FloodSet{Rounds: rounds}, n)
	f := fieldTo(t, m, rounds)
	g := f.Graph()

	// E1: Con_0 structure.
	bivalent := 0
	for _, u := range g.Inits {
		if f.Bivalent(u) {
			bivalent++
		}
	}
	if bivalent == 0 {
		t.Fatal("no bivalent initial state (Lemma 3.6)")
	}

	// E2: layer connectivity + refutation, over the same graph.
	for _, u := range g.Inits {
		r := f.AnalyzeNode(u)
		if !r.SimilarityConnected || !r.ValenceConnected {
			t.Fatal("S1 layer connectivity failed (Lemma 5.1)")
		}
	}
	w, err := layers.CertifyGraphCtx(nil, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == layers.OK {
		t.Fatal("consensus certified in M^mf (Corollary 5.2)")
	}
	// The witness formats and replays.
	if out := layers.FormatExecution(w.Exec); !strings.Contains(out, "layer 0:") {
		t.Error("witness did not format")
	}
	run := &layers.Runner{Model: m, MaxLayers: w.Exec.Len()}
	outc, err := run.Run(w.Exec.Init, layers.NewScriptScheduler(w.Exec.Actions()))
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == layers.AgreementViolation && outc.Agreement {
		t.Error("replayed witness did not violate agreement")
	}
}

func TestPublicAPISyncLowerBound(t *testing.T) {
	const n, tt = 3, 1
	good := layers.SyncSt(layers.FloodSet{Rounds: tt + 1}, n, tt)
	w, err := layers.Certify(good, tt+1, 0)
	if err != nil || w.Kind != layers.OK {
		t.Fatalf("FloodSet(t+1): %v %v", w.Kind, err)
	}
	fast := layers.SyncSt(layers.FloodSet{Rounds: tt}, n, tt)
	w, err = layers.Certify(fast, tt, 0)
	if err != nil || w.Kind == layers.OK {
		t.Fatalf("FloodSet(t): %v %v (Corollary 6.3)", w.Kind, err)
	}
	// E9b through the facade.
	early := layers.SyncSt(layers.EarlyFloodSet{MaxRounds: tt + 1}, n, tt)
	w, err = layers.Certify(early, tt+1, 0)
	if err != nil || w.Kind != layers.OK {
		t.Fatalf("EarlyFloodSet: %v %v", w.Kind, err)
	}
	// EIG through the facade.
	eig := layers.SyncSt(layers.EIG{Rounds: tt + 1}, n, tt)
	w, err = layers.Certify(eig, tt+1, 0)
	if err != nil || w.Kind != layers.OK {
		t.Fatalf("EIG: %v %v", w.Kind, err)
	}
}

func TestPublicAPIAsyncModels(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name string
		m    layers.Model
	}{
		{"shmem", layers.SharedMemory(layers.SMVote{Phases: 1}, n)},
		{"asyncmp", layers.AsyncMessagePassing(layers.MPFlood{Phases: 1}, n)},
		{"iis", layers.IteratedImmediateSnapshot(layers.SMVote{Phases: 1}, n)},
		{"snapshot", layers.SnapshotMemory(layers.SMVote{Phases: 1}, n)},
	} {
		w, err := layers.Certify(tc.m, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if w.Kind == layers.OK {
			t.Errorf("%s: consensus certified (Corollary 5.4 family)", tc.name)
		}
	}
}

func TestPublicAPIBivalentChain(t *testing.T) {
	const n, rounds = 3, 3
	m := layers.MobileS1(layers.FloodSet{Rounds: rounds}, n)
	ch, err := fieldTo(t, m, rounds).BivalentChain(rounds - 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stuck != nil || ch.Reached != rounds-1 {
		t.Fatalf("chain reached %d (stuck=%v)", ch.Reached, ch.Stuck != nil)
	}
}

func TestPublicAPITasks(t *testing.T) {
	const n = 3
	for _, task := range layers.TaskZoo(n) {
		budget := task.SubproblemBudget
		if budget == 0 {
			budget = 1_000_000
		}
		_, ok, err := task.Problem.KThickConnected(1, budget)
		if err != nil {
			t.Fatalf("%s: %v", task.Problem.Name, err)
		}
		if ok != task.Solvable1Resilient {
			t.Errorf("%s: verdict %v, want %v", task.Problem.Name, ok, task.Solvable1Resilient)
		}
	}
	// E10 through the facade: 2-set agreement certifies in M^mf.
	m := layers.MobileS1(layers.FloodSet{Rounds: 1}, n)
	delta := layers.TaskZoo(n)[1].Problem.Delta // 2-set agreement
	var inits []layers.State
	for _, x := range m.Inits() {
		inits = append(inits, x)
	}
	w, err := layers.CertifyTask(m, inits, delta, 1, 0)
	if err != nil || w.Kind != layers.TaskOK {
		t.Fatalf("2-set in M^mf: %v %v", w.Kind, err)
	}
}

func TestPublicAPICluster(t *testing.T) {
	c := layers.NewCluster(layers.FloodSet{Rounds: 2}, []int{0, 1, 1})
	defer c.Close()
	decisions, err := c.RunRounds(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range decisions {
		if v != 0 {
			t.Errorf("process %d decided %d, want 0", i, v)
		}
	}
}

func TestPublicAPIWitnessKindsComplete(t *testing.T) {
	// Every witness kind is reachable through the facade's protocol zoo.
	kinds := map[layers.WitnessKind]bool{}
	cases := []struct {
		m     layers.Model
		bound int
	}{
		{layers.SyncSt(layers.FloodSet{Rounds: 2}, 3, 1), 2},       // OK
		{layers.SyncSt(layers.FloodSet{Rounds: 1}, 3, 1), 1},       // agreement
		{layers.SyncSt(layers.ConstantDecider{Value: 0}, 3, 1), 1}, // validity
		{layers.SyncSt(layers.FlickerDecider{}, 3, 1), 2},          // write-once
		{layers.SharedMemory(layers.SMVote{Phases: 1}, 3), 1},      // undecided
	}
	for _, c := range cases {
		w, err := layers.Certify(c.m, c.bound, 0)
		if err != nil {
			t.Fatal(err)
		}
		kinds[w.Kind] = true
	}
	for _, want := range []layers.WitnessKind{
		layers.OK, layers.AgreementViolation, layers.ValidityViolation,
		layers.UndecidedAtBound, layers.DecisionChanged,
	} {
		if !kinds[want] {
			t.Errorf("witness kind %v not exercised", want)
		}
	}
	// Kind stringers are stable.
	if valence.OK.String() != "ok" {
		t.Error("stringer changed")
	}
}
