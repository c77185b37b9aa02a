// Command bivalence runs the two executable faces of the paper's
// impossibility machinery against a chosen model:
//
//  1. the certifier, which exhaustively checks the consensus requirements
//     over all runs up to the protocol's decision bound and prints either
//     OK or a violation witness run; and
//  2. the bivalent-chain construction of Theorem 4.2, which builds and
//     prints an execution all of whose states are bivalent.
//
// Usage:
//
//	bivalence -model mobile -n 3 -bound 2
//	bivalence -model shmem -n 3 -bound 1
//	bivalence -model asyncmp -n 3 -bound 1 -target 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/valence"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bivalence:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bivalence", flag.ContinueOnError)
	var (
		model   = fs.String("model", "mobile", "model: "+strings.Join(cli.Models(), "|"))
		n       = fs.Int("n", 3, "number of processes")
		t       = fs.Int("t", 1, "failure budget (sync-st)")
		bound   = fs.Int("bound", 2, "protocol decision bound (layers)")
		target  = fs.Int("target", -1, "bivalent chain target depth (-1 = bound-1)")
		visits  = fs.Int("budget", 5_000_000, "certifier visit budget; exploring to the bound is not budgeted (0 = unbounded)")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON (keys replayable through the model)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target < -1 {
		return fmt.Errorf("-target must be >= -1, got %d", *target)
	}
	if *visits < 0 {
		return fmt.Errorf("-budget must be >= 0, got %d", *visits)
	}
	m, err := cli.Build(cli.Spec{Model: *model, N: *n, T: *t, Bound: *bound})
	if err != nil {
		return err
	}
	// Build accepts bound >= 1 only, so the default target is >= 0.
	tgt := *target
	if tgt == -1 {
		tgt = *bound - 1
	}

	g, err := core.ExploreIDCtx(nil, m, *bound, 0, 0)
	if err != nil {
		return err
	}
	w, err := valence.CertifyGraph(nil, g, *visits)
	if err != nil {
		return err
	}
	if *jsonOut {
		return runJSON(out, m, g, w, *bound, tgt)
	}
	fmt.Fprintf(out, "== certifying consensus over %s (bound %d) ==\n", m.Name(), *bound)
	fmt.Fprintf(out, "verdict: %s\n", w.Kind)
	if w.Kind != valence.OK {
		fmt.Fprintf(out, "detail:  %s\n", w.Detail)
		fmt.Fprintf(out, "witness run (%d layers):\n%s", w.Exec.Len(), trace.FormatExecution(w.Exec))
	}

	fmt.Fprintf(out, "\n== bivalent chain (Theorem 4.2), target %d layers ==\n", tgt)
	f, err := chainField(m, g, tgt)
	if err != nil {
		return err
	}
	ch, err := f.BivalentChain(tgt)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "reached %d of %d layers (valence field: %d nodes)\n", ch.Reached, tgt, f.Len())
	fmt.Fprint(out, trace.FormatExecution(ch.Exec))
	if ch.Stuck != nil {
		fmt.Fprintf(out, "chain stuck: layer had %d states, %d bivalent, valence-connected=%v\n",
			len(ch.Stuck.States), len(ch.Stuck.BivalentIdx), ch.Stuck.ValenceConnected)
		return fmt.Errorf("bivalent chain could not reach target depth")
	}
	return nil
}

// chainField sweeps the valence field a chain of target layers reads: the
// certified graph g, explored to the bound, when the chain ends inside it,
// and otherwise a graph explored to target+1, so that every chain state,
// the last included, is judged at least one layer ahead.
func chainField(m core.Model, g *core.IDGraph, target int) (*valence.Field, error) {
	if target+1 > g.Depth {
		var err error
		if g, err = core.ExploreIDCtx(nil, m, target+1, 0, 0); err != nil {
			return nil, err
		}
	}
	return valence.NewFieldCtx(nil, g)
}

// runJSON emits the certification witness and the bivalent chain as one
// JSON document, with exact state keys so the runs replay through the
// model.
func runJSON(out io.Writer, m core.Model, g *core.IDGraph, w *valence.Witness, bound, target int) error {
	f, err := chainField(m, g, target)
	if err != nil {
		return err
	}
	ch, err := f.BivalentChain(target)
	if err != nil {
		return err
	}
	key := func(x core.State) string { return x.Key() }
	doc := struct {
		Model   string              `json:"model"`
		Bound   int                 `json:"bound"`
		Certify *report.WitnessJSON `json:"certify"`
		Chain   *report.ChainJSON   `json:"bivalentChain"`
	}{
		Model:   m.Name(),
		Bound:   bound,
		Certify: report.NewWitness(w, key),
		Chain:   report.NewChain(ch, key),
	}
	return report.Write(out, doc)
}
