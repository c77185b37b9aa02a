package cli_test

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
)

// startObs parses args as the shared observability flags and starts them.
func startObs(t *testing.T, args ...string) func() {
	t.Helper()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := cli.RegisterObs(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	return stop
}

// explore runs one small exploration under whatever obs is installed.
func explore(t *testing.T) {
	t.Helper()
	m, err := cli.Build(cli.Spec{Model: "mobile", N: 3, Bound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ExploreIDCtx(nil, m, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
}

// TestJournalHoldsSpans: -journal alone journals the phase spans, each
// span.begin matched by one span.end of the same id and name.
func TestJournalHoldsSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	stop := startObs(t, "-journal", path)
	explore(t)
	stop()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	open := map[float64]string{}
	ended := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event  string         `json:"event"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		id, _ := ev.Fields["span"].(float64)
		name, _ := ev.Fields["name"].(string)
		switch ev.Event {
		case "span.begin":
			open[id] = name
		case "span.end":
			if open[id] != name {
				t.Errorf("span.end %v %q has no matching span.begin", id, name)
			}
			delete(open, id)
			ended[name]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(open) != 0 {
		t.Errorf("unterminated spans: %v", open)
	}
	if ended["explore"] != 1 || ended["explore.layer"] != 2 {
		t.Errorf("balanced spans by name = %v, want 1 explore and 2 explore.layer", ended)
	}
}

// TestStatsHoldSpans: -stats alone times the phases through spans, so the
// printed table carries the span.explore histogram.
func TestStatsHoldSpans(t *testing.T) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()

	stop := startObs(t, "-stats")
	m := obs.Active()
	if m == nil || obs.Trace() == nil {
		stop()
		t.Fatalf("-stats installed recorder %v and tracer %v", m, obs.Trace())
	}
	explore(t)
	stop()
	if h := m.Timer("span.explore"); h == nil || h.Count() != 1 {
		t.Errorf("span.explore histogram = %v, want one sample", h)
	}
	table, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(table), "span.explore.count") {
		t.Errorf("-stats table lacks span.explore:\n%s", table)
	}
}

// TestNoFlagNoObs: with no observability flag the engines keep their nil
// recorder and nil tracer.
func TestNoFlagNoObs(t *testing.T) {
	stop := startObs(t)
	defer stop()
	if obs.Active() != nil || obs.Trace() != nil {
		t.Errorf("no flag installed recorder %v and tracer %v", obs.Active(), obs.Trace())
	}
}
