package cli_test

import (
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestBuildAllModels(t *testing.T) {
	for _, name := range cli.Models() {
		spec := cli.Spec{Model: name, N: 3, T: 1, Bound: 2}
		m, err := cli.Build(spec)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(m.Inits()) != 8 {
			t.Errorf("%s: %d initial states, want 8", name, len(m.Inits()))
		}
		if succ := m.Successors(m.Inits()[0]); len(succ) == 0 {
			t.Errorf("%s: empty layer", name)
		}
	}
}

func TestBuildFullInfoVariants(t *testing.T) {
	for _, name := range cli.Models() {
		m, err := cli.Build(cli.Spec{Model: name, N: 3, T: 1, FullInfo: true})
		if err != nil {
			t.Errorf("%s fullinfo: %v", name, err)
			continue
		}
		if !strings.Contains(m.Name(), "fullinfo") {
			t.Errorf("%s fullinfo: model name %q", name, m.Name())
		}
	}
}

// TestBuildAcceptsPracticalSizes: every model builds at n = 2..6 (sync-st
// from n = 3, the least n with a budget 1 <= t <= n-2).
func TestBuildAcceptsPracticalSizes(t *testing.T) {
	for _, name := range cli.Models() {
		for n := 2; n <= 6; n++ {
			if name == "sync-st" && n < 3 {
				continue
			}
			if _, err := cli.Build(cli.Spec{Model: name, N: n, T: 1, Bound: 2}); err != nil {
				t.Errorf("%s n=%d: %v", name, n, err)
			}
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	bad := []cli.Spec{
		{Model: "mobile", N: 1, Bound: 2},        // n too small
		{Model: "mobile", N: 3, Bound: 0},        // missing bound
		{Model: "sync-st", N: 3, T: 0, Bound: 2}, // t out of range
		{Model: "sync-st", N: 3, T: 2, Bound: 2}, // t > n-2
		{Model: "no-such-model", N: 3, T: 1, Bound: 2},
	}
	// Process counts past cli.MaxN: the models enumerate 2^n initial
	// states and keep process sets in uint64 masks.
	for _, name := range cli.Models() {
		for _, n := range []int{cli.MaxN + 1, 63, 64, 65} {
			bad = append(bad, cli.Spec{Model: name, N: n, T: 1, Bound: 1})
		}
	}
	for i, spec := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("case %d (%+v): panic %v", i, spec, r)
				}
			}()
			if _, err := cli.Build(spec); err == nil {
				t.Errorf("case %d (%+v): want error", i, spec)
			}
		}()
	}
}
