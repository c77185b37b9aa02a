package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsBadFlags: a negative -budget and a -target below -1 are
// errors naming the flag, returned before anything is printed. Unchecked,
// -budget -1 certified with no budget and -target -5 read as the default
// bound-1, which only -1 selects.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-budget", "-1"}, {"-budget", "-1", "-json"}, {"-target", "-2"}, {"-target", "-5"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), args[0]+" must be") {
			t.Errorf("run %v: err = %v, want an error naming %s", args, err, args[0])
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed %q", args, out.String())
		}
	}
}

// TestChainRun: the mobile model's FloodSet(2) is refuted, and a bivalent
// chain reaches the default target bound-1 and an explicit target past
// the bound.
func TestChainRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, []string{"verdict: agreement violation", "target 1 layers", "reached 1 of 1 layers (valence field: 34 nodes)"}},
		{[]string{"-target", "2"}, []string{"target 2 layers", "reached 2 of 2 layers (valence field: 47 nodes)"}},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("run %v: %v", tc.args, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("run %v output lacks %q:\n%s", tc.args, w, out.String())
			}
		}
	}
}
