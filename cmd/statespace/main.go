// Command statespace explores a model's reachable state graph to a depth
// bound and emits it in Graphviz DOT format (to stdout), with states ranked
// by layer depth and edges labeled by environment actions. Pipe the output
// to `dot -Tsvg` to visualize a layered submodel.
//
// Usage:
//
//	statespace -model mobile -n 3 -bound 2 -depth 2 > graph.dot
//	statespace -model sync-st -n 3 -t 1 -bound 2 -depth 2 -max 150
//
// Long explorations are interruptible: SIGINT (or an elapsed -deadline)
// stops at the next layer boundary, writes the -checkpoint snapshot, and
// exits nonzero; rerunning with -resume finishes the exploration with a
// graph bit-identical to an uninterrupted run's:
//
//	statespace -model sync-st -n 5 -t 2 -bound 3 -depth 3 -checkpoint st.ckpt
//	statespace -model sync-st -n 5 -t 2 -bound 3 -depth 3 -resume st.ckpt
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/resilient"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "statespace:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("statespace", flag.ContinueOnError)
	var (
		model = fs.String("model", "mobile", "model: "+strings.Join(cli.Models(), "|"))
		n     = fs.Int("n", 3, "number of processes")
		t     = fs.Int("t", 1, "failure budget (sync-st)")
		bound = fs.Int("bound", 2, "protocol decision bound")
		depth = fs.Int("depth", 2, "exploration depth (layers)")
		max   = fs.Int("max", 200, "max nodes rendered (0 = all)")
	)
	obsFlags := cli.RegisterObs(fs)
	resFlags := cli.RegisterResilience(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer stopObs()
	ctx, stopRes, err := resFlags.Start()
	if err != nil {
		return err
	}
	defer stopRes()
	m, err := cli.Build(cli.Spec{Model: *model, N: *n, T: *t, Bound: *bound})
	if err != nil {
		return err
	}
	g, err := core.ExploreIDCtx(ctx, m, *depth, 1_000_000, 1)
	if err != nil {
		if errors.Is(err, resilient.ErrPartial) && !errors.Is(err, core.ErrNodeBudget) {
			// Canceled or past deadline: save the checkpoint, report the
			// partial graph, and exit nonzero.
			if g != nil {
				fmt.Fprintf(os.Stderr, "statespace: partial graph: %d states\n", g.Len())
			}
			return resFlags.Finish(err)
		}
		if !errors.Is(err, core.ErrNodeBudget) {
			return err
		}
		fmt.Fprintf(os.Stderr, "statespace: %v; rendering the partial graph\n", err)
	}
	fmt.Fprintf(os.Stderr, "statespace: %s, %d states to depth %d\n", m.Name(), g.Len(), *depth)
	_, err = fmt.Fprint(out, trace.GraphDOT(g, trace.DOTOptions{MaxNodes: *max}))
	return err
}
