package trace_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/trace"
)

func exploreMobile(t *testing.T, depth int) *core.IDGraph {
	t.Helper()
	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	g, err := core.ExploreID(m, depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphDOTBasics(t *testing.T) {
	g := exploreMobile(t, 1)
	dot := trace.GraphDOT(g, trace.DOTOptions{})
	if !strings.HasPrefix(dot, "digraph layers {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("not a DOT document:\n%.80s", dot)
	}
	if !strings.Contains(dot, "rank=same") {
		t.Error("missing depth ranking")
	}
	if !strings.Contains(dot, `label="noop"`) {
		t.Error("missing action edge labels")
	}
	// One node statement per graph node.
	if got := strings.Count(dot, "];\n") - strings.Count(dot, "-> "); got < g.Len() {
		t.Errorf("expected >= %d node statements", g.Len())
	}
}

func TestGraphDOTDeterministic(t *testing.T) {
	g := exploreMobile(t, 1)
	a := trace.GraphDOT(g, trace.DOTOptions{})
	b := trace.GraphDOT(g, trace.DOTOptions{})
	if a != b {
		t.Error("DOT rendering not deterministic")
	}
}

func TestGraphDOTTruncationAndHighlight(t *testing.T) {
	g := exploreMobile(t, 2)
	some := g.Keys[0]
	dot := trace.GraphDOT(g, trace.DOTOptions{
		MaxNodes:      5,
		HighlightKeys: map[string]bool{some: true},
	})
	if !strings.Contains(dot, "ellipsis") {
		t.Error("truncated rendering missing ellipsis")
	}
	if strings.Count(dot, "n4 [") != 1 || strings.Contains(dot, "n5 [") {
		t.Error("MaxNodes not honored")
	}
}

func TestGraphDOTCustomLabel(t *testing.T) {
	g := exploreMobile(t, 0)
	dot := trace.GraphDOT(g, trace.DOTOptions{
		NodeLabel: func(core.State) string { return "CUSTOM" },
	})
	if !strings.Contains(dot, "CUSTOM") {
		t.Error("custom label ignored")
	}
}
