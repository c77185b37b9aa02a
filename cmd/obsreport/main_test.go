package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// traceJournal produces a real journal through the obs tracer: a root
// explore span with two layer children, a shard span on lane 1, and a
// sequential certify phase — the shape a traced engine run emits.
func traceJournal(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	m := obs.NewMetrics()
	j := obs.NewJournal(&buf)
	m.SetJournal(j)
	tr := obs.NewTracer(m, j)

	root := tr.Begin("explore", 0)
	for i := 0; i < 2; i++ {
		layer := tr.Begin("explore.layer", root.ID)
		shard := tr.BeginLane("explore.warm.shard", layer.ID, 1)
		tr.End(shard)
		tr.End(layer)
	}
	tr.End(root)
	cert := tr.Begin("certify", 0)
	tr.End(cert)
	m.Add("explore.nodes", 204)
	m.Add("certify.visits", 57)
	m.Record("explore.layer.width", 17)
	m.Event("run.done")
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// syntheticJournal writes span pairs with explicit durations (ns), one
// root span per name.
func syntheticJournal(t *testing.T, durs map[string]int64) string {
	t.Helper()
	var buf bytes.Buffer
	id := 0
	ts := int64(0)
	for name, d := range durs {
		id++
		fmt.Fprintf(&buf, `{"event":"span.begin","seq":%d,"ts_ns":%d,"fields":{"span":%d,"parent":0,"name":%q,"lane":0}}`+"\n",
			2*id-2, ts, id, name)
		ts += d
		fmt.Fprintf(&buf, `{"event":"span.end","seq":%d,"ts_ns":%d,"fields":{"span":%d,"name":%q,"lane":0,"dur_ns":%d}}`+"\n",
			2*id-1, ts, id, name, d)
	}
	path := filepath.Join(t.TempDir(), "synthetic.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportRendersPhaseTable(t *testing.T) {
	journal := traceJournal(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{journal}, &stdout, &stderr); code != exitOK {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"PHASE ATTRIBUTION", "explore.layer", "explore.warm.shard", "certify",
		"HISTOGRAMS", "explore.layer.width", "span.explore",
		"COUNTERS", "explore.nodes", "certify.visits",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseAttributionSelfTime(t *testing.T) {
	events := []Event{
		{Event: "span.begin", TsNs: 0, Fields: map[string]any{"span": 1.0, "parent": 0.0, "name": "parent", "lane": 0.0}},
		{Event: "span.begin", TsNs: 10, Fields: map[string]any{"span": 2.0, "parent": 1.0, "name": "child", "lane": 0.0}},
		{Event: "span.end", TsNs: 70, Fields: map[string]any{"span": 2.0, "name": "child", "lane": 0.0, "dur_ns": 60.0}},
		{Event: "span.end", TsNs: 100, Fields: map[string]any{"span": 1.0, "name": "parent", "lane": 0.0, "dur_ns": 100.0}},
	}
	spans, open, err := buildSpans(events)
	if err != nil || open != 0 {
		t.Fatalf("buildSpans: open=%d err=%v", open, err)
	}
	rows := phaseRows(spans)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Name != "parent" || rows[0].TotalNs != 100 || rows[0].SelfNs != 40 {
		t.Errorf("parent row = %+v, want total 100 self 40", rows[0])
	}
	if rows[1].Name != "child" || rows[1].TotalNs != 60 || rows[1].SelfNs != 60 {
		t.Errorf("child row = %+v, want total 60 self 60", rows[1])
	}
}

func TestBuildSpansCountsUnterminated(t *testing.T) {
	events := []Event{
		{Event: "span.begin", TsNs: 0, Fields: map[string]any{"span": 1.0, "parent": 0.0, "name": "interrupted", "lane": 0.0}},
	}
	spans, open, err := buildSpans(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 || open != 1 {
		t.Errorf("spans=%d open=%d, want 0/1", len(spans), open)
	}
}

// TestChromeTraceRoundTrip: the -chrome export of a real traced journal
// is valid Chrome Trace Event Format JSON whose B/E pairs nest with
// stack discipline per (pid, tid).
func TestChromeTraceRoundTrip(t *testing.T) {
	journal := traceJournal(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chrome", out, journal}, &stdout, &stderr); code != exitOK {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	if len(trace.TraceEvents)%2 != 0 {
		t.Fatalf("odd event count %d: unpaired B/E", len(trace.TraceEvents))
	}
	type tidKey struct{ pid, tid int }
	stacks := make(map[tidKey][]string)
	lastTs := make(map[tidKey]float64)
	for i, ev := range trace.TraceEvents {
		k := tidKey{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[k] {
			t.Fatalf("event %d: ts went backwards on tid %v", i, k)
		}
		lastTs[k] = ev.Ts
		switch ev.Ph {
		case "B":
			stacks[k] = append(stacks[k], ev.Name)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				t.Fatalf("event %d: E %q on tid %v with empty stack", i, ev.Name, k)
			}
			if top := st[len(st)-1]; top != ev.Name {
				t.Fatalf("event %d: E %q does not match open span %q on tid %v", i, ev.Name, top, k)
			}
			stacks[k] = st[:len(st)-1]
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	for k, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %v left %d spans open: %v", k, len(st), st)
		}
	}
}

func TestDiffExitsNonZeroOnRegression(t *testing.T) {
	base := syntheticJournal(t, map[string]int64{"explore": 1_000_000, "certify": 500_000})
	slow := syntheticJournal(t, map[string]int64{"explore": 1_100_000, "certify": 1_200_000})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", base, slow}, &stdout, &stderr); code != exitRegression {
		t.Fatalf("run = %d, want %d (certify slowed 2.4x)\n%s", code, exitRegression, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSED") {
		t.Errorf("diff output does not mark the regression:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-diff", base, base}, &stdout, &stderr); code != exitOK {
		t.Fatalf("self-diff = %d, want %d", code, exitOK)
	}

	// A higher threshold tolerates the same slowdown.
	stdout.Reset()
	if code := run([]string{"-diff", base, "-threshold", "3", slow}, &stdout, &stderr); code != exitOK {
		t.Fatalf("run with threshold 3 = %d, want %d", code, exitOK)
	}
}

// TestRejectsBadFlags: a -threshold of at most 1 (or NaN) would make a
// journal regress against itself, and a negative -top has no meaning;
// each exits 2 with an error naming its flag before any journal is read
// (the journals named here do not exist), and prints nothing to stdout.
func TestRejectsBadFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, args := range [][]string{
		{"-threshold", "1", "-diff", missing, missing},
		{"-threshold", "0.5", "-diff", missing, missing},
		{"-threshold", "-1", "-diff", missing, missing},
		{"-threshold", "NaN", missing},
		{"-top", "-3", missing},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitError {
			t.Errorf("%v: exit %d, want %d", args, code, exitError)
		}
		if flag := args[0]; !strings.Contains(stderr.String(), flag) || strings.Contains(stderr.String(), "missing.jsonl") {
			t.Errorf("%v: stderr %q does not name %s alone", args, stderr.String(), flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want nothing", args, stdout.String())
		}
	}
}

func TestParseFailureExitsNonZero(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"event\":\"ok\"}\nnot json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{bad}, &stdout, &stderr); code != exitError {
		t.Fatalf("run on corrupt journal = %d, want %d", code, exitError)
	}
	if !strings.Contains(stderr.String(), "line 2") {
		t.Errorf("error does not name the bad line: %s", stderr.String())
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &stdout, &stderr); code != exitError {
		t.Error("missing file must exit non-zero")
	}
	if code := run([]string{}, &stdout, &stderr); code != exitError {
		t.Error("no arguments must exit non-zero with usage")
	}
}
