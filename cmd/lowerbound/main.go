// Command lowerbound reproduces the Section 6 story for the t-resilient
// synchronous model: it certifies FloodSet with t+1 rounds (the classical
// matching upper bound), refutes the t-round variant with a concrete
// adversary run (Corollary 6.3), and constructs the Lemma 6.1 bivalent
// chain showing how the adversary spends one failure per round to postpone
// decision.
//
// Usage:
//
//	lowerbound -n 4 -t 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/trace"
	"repro/internal/valence"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lowerbound", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 4, "number of processes (>= t+2)")
		t      = fs.Int("t", 2, "failure budget")
		visits = fs.Int("budget", 10_000_000, "certifier visit budget; exploring to the bound is not budgeted (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n > cli.MaxN {
		return fmt.Errorf("-n must be <= %d, got %d", cli.MaxN, *n)
	}
	if *t < 1 || *t > *n-2 {
		return fmt.Errorf("need 1 <= t <= n-2, got n=%d t=%d", *n, *t)
	}
	if *visits < 0 {
		return fmt.Errorf("-budget must be >= 0, got %d", *visits)
	}

	// Upper bound: FloodSet with t+1 rounds is correct.
	good := protocols.FloodSet{Rounds: *t + 1}
	mGood := syncmp.NewSt(good, *n, *t)
	gGood, err := core.ExploreIDCtx(nil, mGood, *t+1, 0, 0)
	if err != nil {
		return err
	}
	w, err := valence.CertifyGraph(nil, gGood, *visits)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "FloodSet(%d rounds), n=%d t=%d: %s (%d state-visits)\n", *t+1, *n, *t, w.Kind, w.Explored)
	if w.Kind != valence.OK {
		return fmt.Errorf("the t+1-round protocol was refuted; this contradicts the classical upper bound")
	}

	// Lower bound: the t-round variant must fail.
	fast := protocols.FloodSet{Rounds: *t}
	mFast := syncmp.NewSt(fast, *n, *t)
	w, err = valence.Certify(nil, mFast, *t, *visits)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "FloodSet(%d rounds), n=%d t=%d: %s\n", *t, *n, *t, w.Kind)
	if w.Kind == valence.OK {
		return fmt.Errorf("the t-round protocol was certified; this contradicts Corollary 6.3")
	}
	fmt.Fprintf(out, "detail: %s\nadversary run:\n%s", w.Detail, trace.FormatExecution(w.Exec))

	// Lemma 6.1: the bivalent chain against the CORRECT protocol, showing
	// decision cannot complete before round t+1. Its valences come from the
	// graph certified above, explored to the t+1 bound.
	fmt.Fprintf(out, "\nLemma 6.1 bivalent chain against FloodSet(%d):\n", *t+1)
	f, err := valence.NewFieldCtx(nil, gGood)
	if err != nil {
		return err
	}
	ch, err := f.BivalentChain(*t - 1)
	if err != nil {
		return err
	}
	fmt.Fprint(out, trace.FormatExecution(ch.Exec))
	if ch.Stuck != nil {
		return fmt.Errorf("chain stuck at depth %d", ch.Reached)
	}
	last := ch.Exec.Last()
	fmt.Fprintf(out, "after %d layers: %d processes failed, bivalent, nobody decided -> ", ch.Reached, core.FailedCount(last))
	fmt.Fprintln(out, "two more rounds are needed (Lemma 6.2): the t+1 bound is tight")
	return nil
}
