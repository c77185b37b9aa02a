package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// plantEnv makes a child of the test binary run with a wrong pinned
// expectation, so every sample it takes fails its verdict check.
const plantEnv = "COLDBENCH_TEST_PLANT_WRONG_VERDICT"

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes os.Executable() as its children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			if os.Getenv(plantEnv) != "" {
				zooSolvable["consensus(n=3)"] = true
			}
			os.Exit(childMain(os.Args[2:]))
		case "ref":
			os.Exit(refMain())
		}
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts that got holds exactly the wanted metrics, each with
// its unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", label, w.Name, m.Unit, w.Unit)
		}
	}
}

// runHarness runs the harness on task_zoo, the cheapest workload, taking
// the minimum sample counts, and returns its exit status and result line.
func runHarness(t *testing.T) (int, map[string]json.RawMessage) {
	t.Helper()
	var out bytes.Buffer
	code := parentMain([]string{"--workload", "task_zoo", "--seed", "3", "--seconds", "0", "--trace", "0"}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, res
}

// TestEveryWorkloadEmitsEveryMetric runs one traced sample of every
// workload in process and checks that the per-layer and end-to-end
// summaries name every metric of BENCHMARK.json with its unit, and that
// the spans account for the verdict time.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, bw := range b.Workloads {
		w := workloads[i]
		if w.name != bw.Name {
			t.Fatalf("workload %d is %s in BENCHMARK.json, %s in the harness", i, bw.Name, w.name)
		}
		rep, err := runSample(w, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced := sample{traced: true, verdictS: rep.VerdictS, layer: rep.Layer}
		untraced := sample{verdictS: rep.VerdictS, refS: 1, refCPUS: 1}
		res := summarize([]sample{traced, untraced}, true)
		checkMetrics(t, w.name+" per-layer", res.Metrics, b.PerLayer)
		if f := res.Metrics["attributed_frac"].Value; f < 0.95 {
			t.Errorf("%s: spans cover %.3f of verdict time, want at least 0.95", w.name, f)
		}
		res = summarize([]sample{untraced}, false)
		checkMetrics(t, w.name+" end-to-end", res.Metrics, b.EndToEnd)
	}
}

func TestHarnessRun(t *testing.T) {
	code, res := runHarness(t)
	if code != 0 {
		t.Fatalf("exit status %d, result %s", code, res)
	}
	if len(res) != 4 {
		t.Errorf("result has keys %v, want correct, attempted, failed, metrics", res)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "task_zoo", metrics, readBenchmark(t).EndToEnd)
	for name, m := range metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
	if string(res["correct"]) != "true" || string(res["failed"]) != "0" {
		t.Errorf("correct %s, failed %s", res["correct"], res["failed"])
	}
}

func TestWrongVerdictFailsTheRun(t *testing.T) {
	t.Setenv(plantEnv, "1")
	code, res := runHarness(t)
	if code == 0 {
		t.Error("exit status 0 with a wrong pinned verdict")
	}
	if string(res["correct"]) != "false" || string(res["failed"]) != string(res["attempted"]) {
		t.Errorf("correct %s, failed %s of %s attempted", res["correct"], res["failed"], res["attempted"])
	}
}
