package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestRejectsBadCounts: a count that would make an empty or meaningless run
// is an error naming its flag, returned before any case runs (no seed
// sweeps no case, and chaos.PlanFor would turn -max-hit 0 into 1).
func TestRejectsBadCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "0"},
		{"-seeds", "-2"},
		{"-seeds", "1", "-max-hit", "0"},
		{"-seeds", "1", "-depth", "-1"},
		{"-seeds", "1", "-crash-kills", "0"},
		{"-crash", "-crash-kills", "-3"},
	} {
		flag := args[len(args)-2]
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), flag+" must be") {
			t.Errorf("run %v: err = %v, want an error naming %s", args, err, flag)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed %q", args, out.String())
		}
	}
}

// TestOneSeedCampaign: one seed sweeps every fault point and kind once,
// every fault fires at its first hit (each case explores a model of its
// own, so the exploration faults hit a real exploration), and every case
// recovers to the fault-free summary.
func TestOneSeedCampaign(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seeds", "1", "-max-hit", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	points := len(chaos.Points())
	want := fmt.Sprintf("campaign: %d cases (1 seeds x %d points x 4 kinds), %d fired,", 4*points, points, 4*points)
	if !strings.HasPrefix(out.String(), want) || !strings.HasSuffix(out.String(), ", 0 failures\n") {
		t.Errorf("run -seeds 1 printed %q, want %q... 0 failures", out.String(), want)
	}
}
