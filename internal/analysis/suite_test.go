package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func testdata(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestDetOrder(t *testing.T) {
	analysistest.Run(t, testdata(t), analysis.DetOrder, "detorder")
}

func TestInternFreeze(t *testing.T) {
	analysistest.Run(t, testdata(t), analysis.InternFreeze, "internfreeze")
}

func TestSentErr(t *testing.T) {
	analysistest.Run(t, testdata(t), analysis.SentErr, "senterr")
}

func TestParShard(t *testing.T) {
	analysistest.Run(t, testdata(t), analysis.ParShard, "parshard")
}

// TestCtxPoll analyzes the chaos fixture first: chaos.Check's "polls" fact
// crosses the package boundary through the shared store, and the fixture's
// GoodTwoFrames case is two helper frames from the intrinsic ctx.Err load.
func TestCtxPoll(t *testing.T) {
	analysistest.RunWithDeps(t, testdata(t), analysis.CtxPoll, "ctxpoll", "chaos")
}

// TestHotAlloc analyzes the hothelpers fixture first, so the hotpath
// violation two frames away (Format -> format -> fmt.Sprintf) is reported
// through an imported fact.
func TestHotAlloc(t *testing.T) {
	analysistest.RunWithDeps(t, testdata(t), analysis.HotAlloc, "hotalloc", "hothelpers")
}

func TestAppliesScoping(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		pkg      string
		want     bool
	}{
		{analysis.DetOrder, "repro/internal/core", true},
		{analysis.DetOrder, "repro/internal/valence", true},
		{analysis.DetOrder, "repro/internal/knowledge", true},
		{analysis.DetOrder, "repro/internal/decision", true},
		{analysis.DetOrder, "repro/internal/sim", false},
		{analysis.DetOrder, "repro/internal/obs", false},
		{analysis.InternFreeze, "repro/internal/sim", true},
		{analysis.SentErr, "repro/cmd/repro", true},
		{analysis.ParShard, "repro/internal/core", true},
		{analysis.CtxPoll, "repro/internal/core", true},
		{analysis.CtxPoll, "repro/internal/obs", false},
		{analysis.HotAlloc, "repro/internal/obs", true},
	}
	for _, c := range cases {
		if got := analysis.Applies(c.analyzer, c.pkg); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
}

func TestSuiteComplete(t *testing.T) {
	all := analysis.All()
	if len(all) != 6 {
		t.Fatalf("All() returned %d analyzers, want 6", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incompletely declared", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Suppress == "" {
			t.Errorf("analyzer %q has no escape-hatch token", a.Name)
		}
	}
}
