// Command solvability evaluates the Section 7 characterization on the
// decision-task zoo: for each task it reports whether the task is 1-thick
// connected (equivalently, per Corollary 7.3, 1-resiliently solvable in all
// of the paper's models and submodels) together with the literature's
// verdict, and shows the Theorem 7.7 diameter bound for t-round synchronous
// solvability.
//
// Usage:
//
//	solvability -n 3
//	solvability -n 3 -t 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/decision"
	"repro/internal/tasks"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "solvability:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("solvability", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 3, "number of processes, 2..4 (2 or 3 for exhaustive subproblem search)")
		t      = fs.Int("t", 1, "rounds for the Theorem 7.7 diameter bound (>= 0)")
		budget = fs.Int("budget", 1_000_000, "subproblem search budget (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Beyond n=4 the zoo's binary-input tasks exceed the simplex package's
	// input limit; below 2 the literature's verdicts do not apply.
	if *n < 2 || *n > 4 {
		return fmt.Errorf("-n must be in 2..4, got %d", *n)
	}
	if *t < 0 {
		return fmt.Errorf("-t must be >= 0, got %d", *t)
	}
	if *budget < 0 {
		return fmt.Errorf("-budget must be >= 0, got %d", *budget)
	}

	fmt.Fprintf(out, "1-thick connectivity (<=> 1-resilient solvability, Cor 7.3), n=%d:\n", *n)
	fmt.Fprintf(out, "%-28s %-12s %-12s %-6s %s\n", "task", "checker", "literature", "agree", "min-k")
	mismatches := 0
	for _, task := range tasks.Zoo(*n) {
		b := task.SubproblemBudget
		if b == 0 {
			b = *budget
		}
		_, ok, err := task.Problem.KThickConnected(1, b)
		verdict := "solvable"
		if err != nil {
			verdict = "error: " + err.Error()
		} else if !ok {
			verdict = "unsolvable"
		}
		want := "solvable"
		if !task.Solvable1Resilient {
			want = "unsolvable"
		}
		agree := "yes"
		if err != nil || ok != task.Solvable1Resilient {
			agree = "NO"
			mismatches++
		}
		minK := "?"
		if k, err := task.Problem.MinThickness(b); err == nil {
			minK = fmt.Sprintf("%d", k)
		}
		fmt.Fprintf(out, "%-28s %-12s %-12s %-6s %s\n", task.Problem.Name, verdict, want, agree, minK)
	}

	fmt.Fprintf(out, "\nTheorem 7.7 diameter bound d_X^t for t=%d rounds, d(I)=%d inputs diameter:\n", *t, *n)
	for dI := 1; dI <= *n; dI++ {
		fmt.Fprintf(out, "  d(I)=%d: d_X^%d = %d\n", dI, *t, decision.DiameterBound(dI, *n, *t))
	}
	if mismatches > 0 {
		return fmt.Errorf("%d verdict mismatch(es)", mismatches)
	}
	return nil
}
