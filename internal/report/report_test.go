package report_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/valence"
)

func refuted(t *testing.T) (*valence.Witness, core.Model) {
	t.Helper()
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	w, err := valence.Certify(nil, m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == valence.OK {
		t.Fatal("expected refutation")
	}
	return w, m
}

func TestWitnessJSONRoundTrip(t *testing.T) {
	w, _ := refuted(t)
	var buf bytes.Buffer
	if err := report.Write(&buf, report.NewWitness(w, trace.FormatState)); err != nil {
		t.Fatal(err)
	}
	var decoded report.WitnessJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Verdict != "agreement violation" {
		t.Errorf("verdict = %q", decoded.Verdict)
	}
	if decoded.Witness == nil || decoded.Witness.Layers != w.Exec.Len() {
		t.Error("witness execution missing or wrong length")
	}
	if len(decoded.Witness.Steps) != w.Exec.Len() {
		t.Errorf("steps = %d", len(decoded.Witness.Steps))
	}
}

func TestWitnessJSONReplayableWithKeys(t *testing.T) {
	// With State.Key as the formatter, the JSON is exact enough to replay:
	// following the recorded actions reproduces the recorded keys.
	w, m := refuted(t)
	j := report.NewWitness(w, func(x core.State) string { return x.Key() })
	x := w.Exec.Init
	if j.Witness.Init != x.Key() {
		t.Fatal("init key mismatch")
	}
	for _, step := range j.Witness.Steps {
		found := false
		for _, s := range m.Successors(x) {
			if s.Action == step.Action {
				if s.State.Key() != step.State {
					t.Fatalf("replay diverged at %q", step.Action)
				}
				x = s.State
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("action %q not offered", step.Action)
		}
	}
}

func TestChainAndLayerJSON(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 3}, 3)
	g, err := core.ExploreIDCtx(nil, m, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.BivalentChain(2)
	if err != nil {
		t.Fatal(err)
	}
	cj := report.NewChain(ch, trace.FormatState)
	if cj.Reached != 2 || cj.Stuck {
		t.Errorf("chain json = %+v", cj)
	}
	lr := f.AnalyzeNode(g.Inits[1])
	lj := report.NewLayer(lr)
	if lj.States != len(lr.States) || !lj.SimilarityConnected {
		t.Errorf("layer json = %+v", lj)
	}
	var buf bytes.Buffer
	if err := report.Write(&buf, lj); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"similarityConnected\": true") {
		t.Errorf("json = %s", buf.String())
	}
}

// decisionVectors summarizes an execution as the per-process decision at
// every state along it (core.Undecided where undecided).
func decisionVectors(e *core.Execution) [][]int {
	var out [][]int
	for _, x := range e.States() {
		vec := make([]int, x.N())
		for i := range vec {
			vec[i] = core.Undecided
			if v, ok := x.Decided(i); ok {
				vec[i] = v
			}
		}
		out = append(out, vec)
	}
	return out
}

func TestReplayRoundTrip(t *testing.T) {
	// ExecutionJSON (with key formatter) -> JSON bytes -> Replay through the
	// model must reproduce the original execution's decision vectors exactly.
	w, m := refuted(t)
	var buf bytes.Buffer
	keyOf := func(x core.State) string { return x.Key() }
	if err := report.Write(&buf, report.NewExecution(w.Exec, keyOf)); err != nil {
		t.Fatal(err)
	}
	var decoded report.ExecutionJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	replayed, err := report.Replay(m, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Len() != w.Exec.Len() {
		t.Fatalf("replayed %d layers, want %d", replayed.Len(), w.Exec.Len())
	}
	got, want := decisionVectors(replayed), decisionVectors(w.Exec)
	if len(got) != len(want) {
		t.Fatalf("replay has %d states, want %d", len(got), len(want))
	}
	for d := range want {
		for i := range want[d] {
			if got[d][i] != want[d][i] {
				t.Errorf("depth %d process %d: decision %d, want %d", d, i, got[d][i], want[d][i])
			}
		}
	}
}

func TestReplayRejectsDivergence(t *testing.T) {
	w, m := refuted(t)
	keyOf := func(x core.State) string { return x.Key() }
	j := report.NewExecution(w.Exec, keyOf)

	bad := *j
	bad.Init = "no-such-init"
	if _, err := report.Replay(m, &bad); err == nil {
		t.Error("unknown init not rejected")
	}

	bad = *j
	bad.Steps = append([]report.StepJSON(nil), j.Steps...)
	bad.Steps[0].Action = "no-such-action"
	if _, err := report.Replay(m, &bad); err == nil {
		t.Error("unknown action not rejected")
	}

	bad = *j
	bad.Steps = append([]report.StepJSON(nil), j.Steps...)
	bad.Steps[len(bad.Steps)-1].State = "wrong-key"
	if _, err := report.Replay(m, &bad); err == nil {
		t.Error("state-key mismatch not rejected")
	}
}

func TestOKWitnessOmitsExecution(t *testing.T) {
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	// A single univalent root certifies.
	w, err := valence.Certify(nil, core.WithInits(m, m.Inits()[:1]), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := report.NewWitness(w, trace.FormatState)
	if j.Verdict != "ok" || j.Witness != nil {
		t.Errorf("ok witness json = %+v", j)
	}
}
