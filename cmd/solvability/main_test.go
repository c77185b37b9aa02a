package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRejectsBadFlags: n outside 2..4, t < 0 and budget < 0 are errors
// naming the flag, returned before anything is printed. Unchecked, n=0
// panics building the zoo, n=1 reports verdict mismatches the literature
// does not make, n>=5 builds the zoo only to hit the simplex input limit
// on every binary-input task, t=-1 prints a bound for -1 rounds, and a
// negative budget silently lifts the search cap, as 0 does.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-1"}, {"-n", "0"}, {"-n", "1"}, {"-n", "5"}, {"-n", "20"}, {"-t", "-1"},
		{"-budget", "-1"},
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

// TestDefaultRun: the default run (n=3, t=1) agrees with the literature
// on every zoo task and prints testdata/stdout.golden byte for byte; the
// smallest accepted sizes run clean too.
func TestDefaultRun(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdout differs from testdata/stdout.golden; got:\n%s", out.Bytes())
	}
	for _, args := range [][]string{{"-n", "2"}, {"-t", "0"}} {
		if err := run(args, &bytes.Buffer{}); err != nil {
			t.Errorf("run %v: %v", args, err)
		}
	}
}
