// Command simulate executes concrete runs of a model under a chosen
// scheduler and reports aggregate statistics: decision rates, agreement
// violations, and layers-to-decision. It complements the exhaustive
// certifier with cheap statistical exploration at sizes where exhaustive
// search is infeasible.
//
// Usage:
//
//	simulate -model sync-st -n 5 -t 3 -bound 4 -runs 200 -seed 7
//	simulate -model mobile -n 4 -bound 3 -runs 100
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		model = fs.String("model", "sync-st", "model: "+strings.Join(cli.Models(), "|"))
		n     = fs.Int("n", 4, "number of processes")
		t     = fs.Int("t", 2, "failure budget (sync-st)")
		bound = fs.Int("bound", 3, "protocol decision bound and per-run layer cap")
		runs  = fs.Int("runs", 100, "random runs per initial state")
		seed  = fs.Int64("seed", 1, "base RNG seed")
	)
	obsFlags := cli.RegisterObs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be >= 1, got %d", *runs)
	}
	stopObs, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer stopObs()
	m, err := cli.Build(cli.Spec{Model: *model, N: *n, T: *t, Bound: *bound})
	if err != nil {
		return err
	}
	r := &sim.Runner{Model: m, MaxLayers: *bound}
	st, err := r.RunMany(*runs, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model:               %s\n", m.Name())
	fmt.Fprintf(out, "runs:                %d (%d per initial state, seed %d)\n", st.Runs, *runs, *seed)
	fmt.Fprintf(out, "fully decided:       %d/%d\n", st.Decided, st.Runs)
	fmt.Fprintf(out, "agreement held:      %d/%d\n", st.AgreementOK, st.Runs)
	fmt.Fprintf(out, "agreement violated:  %d\n", st.Violations)
	fmt.Fprintf(out, "avg layers per run:  %.2f (max %d)\n", float64(st.TotalLayers)/float64(st.Runs), st.MaxLayersToEnd)
	if st.Violations > 0 {
		fmt.Fprintln(out, "note: violations are expected for consensus candidates in the asynchronous")
		fmt.Fprintln(out, "and mobile models (Corollaries 5.2/5.4) and for too-fast synchronous ones")
		fmt.Fprintln(out, "(Corollary 6.3); use cmd/bivalence for the exhaustive witness.")
	}
	return nil
}
