// Command layercheck verifies the paper's layer-connectivity properties
// for a chosen model: for every initial state (and optionally for every
// state down to a depth), it analyzes the layer S(x) and reports similarity
// connectivity, valence connectivity, the number of similarity components,
// and the layer's s-diameter.
//
// Usage:
//
//	layercheck -model mobile -n 3 -bound 2
//	layercheck -model sync-st -n 4 -t 2 -bound 3 -depth 1
//	layercheck -model shmem -n 3 -bound 2
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
	"repro/internal/valence"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layercheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("layercheck", flag.ContinueOnError)
	var (
		model   = fs.String("model", "mobile", "model: "+strings.Join(cli.Models(), "|"))
		n       = fs.Int("n", 3, "number of processes")
		t       = fs.Int("t", 1, "failure budget (sync-st)")
		bound   = fs.Int("bound", 2, "protocol decision bound (layers)")
		depth   = fs.Int("depth", 0, "also analyze layers of states down to this depth")
		verbose = fs.Bool("v", false, "print one line per analyzed state")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *depth < 0 {
		return fmt.Errorf("-depth must be >= 0, got %d", *depth)
	}
	m, err := cli.Build(cli.Spec{Model: *model, N: *n, T: *t, Bound: *bound})
	if err != nil {
		return err
	}
	// A successor at depth d+1 of a state at depth d is judged within
	// horizon max(bound-d, 1): the rest of the protocol's decision bound,
	// and at least one layer past the deepest analyzed successors. The
	// field holds exactly that when the graph is explored to
	// max(bound+1, depth+2).
	g, err := core.ExploreIDCtx(nil, m, max(*bound+1, *depth+2), 2_000_000, 0)
	if err != nil {
		return err
	}
	f, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		return err
	}

	if *jsonOut {
		return runJSON(out, m.Name(), f, *depth)
	}
	states := 0
	for d := 0; d <= *depth; d++ {
		states += len(g.Layer(d))
	}
	fmt.Fprintf(out, "model %s: analyzing layers of %d state(s) to depth %d\n", m.Name(), states, *depth)
	var analyzed, simConn, valConn int
	maxDiam := 0
	for d := 0; d <= *depth; d++ {
		for _, u := range g.Layer(d) {
			r := f.AnalyzeNode(u)
			analyzed++
			if r.SimilarityConnected {
				simConn++
			}
			if r.ValenceConnected {
				valConn++
			}
			if r.SDiameter > maxDiam {
				maxDiam = r.SDiameter
			}
			if *verbose {
				fmt.Fprintf(out, "  depth=%d |S(x)|=%d sim-conn=%v (components=%d, s-diam=%d) val-conn=%v bivalent=%d null=%d\n",
					d, len(r.States), r.SimilarityConnected, r.SimilarityComponents,
					r.SDiameter, r.ValenceConnected, len(r.BivalentIdx), len(r.NullValentIdx))
			}
		}
	}
	fmt.Fprintf(out, "layers analyzed:        %d\n", analyzed)
	fmt.Fprintf(out, "similarity connected:   %d/%d\n", simConn, analyzed)
	fmt.Fprintf(out, "valence connected:      %d/%d\n", valConn, analyzed)
	fmt.Fprintf(out, "max layer s-diameter:   %d\n", maxDiam)
	if valConn != analyzed {
		return fmt.Errorf("%d layer(s) not valence connected (horizon too small, or theory violated)", analyzed-valConn)
	}
	return nil
}

// runJSON emits one LayerJSON per analyzed state, grouped by depth.
func runJSON(out io.Writer, model string, f *valence.Field, depth int) error {
	type entry struct {
		Depth int               `json:"depth"`
		Layer *report.LayerJSON `json:"layer"`
	}
	doc := struct {
		Model  string  `json:"model"`
		Layers []entry `json:"layers"`
	}{Model: model}
	for d := 0; d <= depth; d++ {
		for _, u := range f.Graph().Layer(d) {
			doc.Layers = append(doc.Layers, entry{
				Depth: d,
				Layer: report.NewLayer(f.AnalyzeNode(u)),
			})
		}
	}
	return report.Write(out, doc)
}
