package main

import (
	"os"
	"strings"
	"testing"
)

// TestRejectsNegativeDepth: a negative -depth is an error naming the flag,
// with nothing rendered; depth 0 renders the initial states and no edge.
func TestRejectsNegativeDepth(t *testing.T) {
	out, err := runTo(t, "-depth", "-1")
	if err == nil || !strings.Contains(err.Error(), "-depth must be") {
		t.Errorf("run -depth -1: err = %v, want an error naming -depth", err)
	}
	if out != "" {
		t.Errorf("run -depth -1 rendered %q", out)
	}
	out, err = runTo(t, "-depth", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "n7 [label=\"d0:") || strings.Contains(out, "->") {
		t.Errorf("run -depth 0 rendered:\n%s", out)
	}
}

// TestRejectsNegativeMax: a negative -max is an error naming the flag,
// with nothing rendered; unchecked, it rendered every node, as 0 does.
func TestRejectsNegativeMax(t *testing.T) {
	out, err := runTo(t, "-max", "-1")
	if err == nil || !strings.Contains(err.Error(), "-max must be") {
		t.Errorf("run -max -1: err = %v, want an error naming -max", err)
	}
	if out != "" {
		t.Errorf("run -max -1 rendered %q", out)
	}
}

// runTo runs statespace with args and returns what it rendered and its
// error.
func runTo(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "dot")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}
