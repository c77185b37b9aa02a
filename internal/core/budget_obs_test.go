package core_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/obs"
	"repro/internal/protocols"
)

// TestExploreBudgetReachedDepth pins the ErrNodeBudget contract: the
// partial graph records the depth actually reached, and its DepthOf
// assignment is internally consistent — every non-initial node sits one
// layer below its BFS parent, and the deepest populated layer is what
// ReachedDepth reports.
func TestExploreBudgetReachedDepth(t *testing.T) {
	const n = 3
	m := mobile.New(protocols.FloodSet{Rounds: 3}, n)
	g, err := core.ExploreIDCtx(nil, m, 3, 40, 1)
	if !errors.Is(err, core.ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if g.Len() != 40 {
		t.Fatalf("partial graph has %d nodes, want 40", g.Len())
	}
	maxDepth := -1
	for u := 0; u < g.Len(); u++ {
		d := int(g.DepthOf[u])
		if d > maxDepth {
			maxDepth = d
		}
		if p := g.ParentOf[u]; p >= 0 {
			if got, want := d, int(g.DepthOf[p])+1; got != want {
				t.Errorf("node %d at depth %d, parent %d at depth %d", u, got, p, g.DepthOf[p])
			}
		} else if d != 0 {
			t.Errorf("parentless node %d at depth %d", u, d)
		}
	}
	if got := g.ReachedDepth(); got != maxDepth {
		t.Errorf("ReachedDepth() = %d, deepest DepthOf = %d", got, maxDepth)
	}
	if got := g.ReachedDepth(); got > g.Depth {
		t.Errorf("ReachedDepth() = %d exceeds bound %d", got, g.Depth)
	}
}

// TestExploreObsCounters checks the exploration instrumentation: node and
// edge counters match the built graph, and the journal carries parseable
// explore.start / explore.depth / explore.done events whose final snapshot
// agrees with the counters.
func TestExploreObsCounters(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewMetrics()
	rec.SetJournal(obs.NewJournal(&buf))
	obs.Enable(rec)
	defer obs.Disable()

	m := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("explore.nodes"); got != int64(g.Len()) {
		t.Errorf("explore.nodes = %d, graph has %d", got, g.Len())
	}
	if got := rec.Counter("explore.edges"); got != int64(g.NumEdges()) {
		t.Errorf("explore.edges = %d, graph has %d", got, g.NumEdges())
	}
	if got := rec.Snapshot()["cache.states"]; got < int64(g.Len()) {
		t.Errorf("cache.states = %d, want >= %d", got, g.Len())
	}

	if err := rec.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	type line struct {
		Event    string           `json:"event"`
		Fields   map[string]any   `json:"fields"`
		Counters map[string]int64 `json:"counters"`
	}
	var events []line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		events = append(events, l)
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want start + 2 depths + done", len(events))
	}
	if events[0].Event != "explore.start" {
		t.Errorf("first event = %q", events[0].Event)
	}
	last := events[len(events)-1]
	if last.Event != "explore.done" {
		t.Errorf("last event = %q", last.Event)
	}
	if last.Fields["reached_depth"] != float64(2) {
		t.Errorf("reached_depth = %v", last.Fields["reached_depth"])
	}
	if last.Counters["explore.nodes"] != int64(g.Len()) {
		t.Errorf("final snapshot explore.nodes = %d", last.Counters["explore.nodes"])
	}
}

// TestExploreObsBudgetEvent checks that budget exhaustion emits
// explore.budget with the depth the partial graph actually reached.
func TestExploreObsBudgetEvent(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewMetrics()
	rec.SetJournal(obs.NewJournal(&buf))
	obs.Enable(rec)
	defer obs.Disable()

	m := mobile.New(protocols.FloodSet{Rounds: 3}, 3)
	g, err := core.ExploreIDCtx(nil, m, 3, 25, 1)
	if !errors.Is(err, core.ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if rec.Counter("explore.budget_hits") != 1 {
		t.Error("explore.budget_hits not counted")
	}
	if err := rec.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var last struct {
		Event  string         `json:"event"`
		Fields map[string]any `json:"fields"`
	}
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Event != "explore.budget" {
		t.Errorf("last event = %q, want explore.budget", last.Event)
	}
	if last.Fields["reached_depth"] != float64(g.ReachedDepth()) {
		t.Errorf("event reached_depth = %v, graph reached %d", last.Fields["reached_depth"], g.ReachedDepth())
	}
}
