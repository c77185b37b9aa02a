package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsBadRuns: a run count below 1 is an error naming -runs,
// returned before anything is printed (with no runs every average is
// NaN); two runs per initial state report their average.
func TestRejectsBadRuns(t *testing.T) {
	for _, runs := range []string{"0", "-3"} {
		var out bytes.Buffer
		err := run([]string{"-runs", runs}, &out)
		if err == nil || !strings.Contains(err.Error(), "-runs must be") {
			t.Errorf("run -runs %s: err = %v, want an error naming -runs", runs, err)
		}
		if out.Len() != 0 {
			t.Errorf("run -runs %s printed %q", runs, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-model", "mobile", "-n", "3", "-bound", "2", "-runs", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "avg layers per run:  2.00") {
		t.Errorf("run -runs 2 printed:\n%s", out.String())
	}
}
