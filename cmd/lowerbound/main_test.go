package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsBadSizes: n above cli.MaxN and a negative visit budget are
// errors naming the flag, returned before anything is printed. Unchecked,
// n=64 and n=65 explore an empty model whose t-round protocol then
// "certifies", n=17 runs for minutes, and a negative budget silently
// means unbounded.
func TestRejectsBadSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "64", "-t", "2"}, {"-n", "65", "-t", "2"}, {"-n", "17", "-t", "1"},
		{"-budget", "-5"}, {"-budget", "-1", "-n", "3", "-t", "1"},
	} {
		flagName := args[0]
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), flagName+" must be") {
			t.Errorf("run %v: err = %v, want an error naming %s", args, err, flagName)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed %q", args, out.String())
		}
	}
	for _, args := range [][]string{{"-n", "3", "-t", "2"}, {"-t", "0"}} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || out.Len() != 0 {
			t.Errorf("run %v: err = %v, printed %q", args, err, out.String())
		}
	}
}

// TestSmallestRun: n=3, t=1 certifies FloodSet(2), refutes FloodSet(1)
// and prints the Lemma 6.1 chain.
func TestSmallestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "3", "-t", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"FloodSet(2 rounds), n=3 t=1: ok (50 state-visits)",
		"FloodSet(1 rounds), n=3 t=1: agreement violation",
		"the t+1 bound is tight",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
