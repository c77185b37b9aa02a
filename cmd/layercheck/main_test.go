package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsNegativeDepth: a negative -depth is an error naming the flag,
// returned before anything is printed. Unchecked, -depth -3 analyzed no
// layer, printed 0/0 and exited 0.
func TestRejectsNegativeDepth(t *testing.T) {
	for _, args := range [][]string{{"-depth", "-1"}, {"-depth", "-3"}, {"-depth", "-3", "-json"}} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "-depth must be") {
			t.Errorf("run %v: err = %v, want an error naming -depth", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed %q", args, out.String())
		}
	}
}

// TestDepthOneRun: every layer of the mobile model's states to depth 1 is
// similarity and valence connected.
func TestDepthOneRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-depth", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	want := "model mobile/S1(n=3,floodset(R=2)): analyzing layers of 21 state(s) to depth 1\n" +
		"layers analyzed:        21\n" +
		"similarity connected:   21/21\n" +
		"valence connected:      21/21\n" +
		"max layer s-diameter:   2\n"
	if out.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}
