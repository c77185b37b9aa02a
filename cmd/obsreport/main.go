package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: 0 clean report, 1 regression found (-diff), 2 usage or
// parse failure.
const (
	exitOK         = 0
	exitRegression = 1
	exitError      = 2
)

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "show the `k` largest counters (0 shows all)")
	chrome := fs.String("chrome", "", "export spans to `file` in Chrome Trace Event Format (load in Perfetto)")
	diff := fs.String("diff", "", "compare phase times against baseline journal `file`; exits 1 on regression")
	threshold := fs.Float64("threshold", 2.0, "-diff regression ratio, above 1: fail when a phase slows by at least this `factor`")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: obsreport [flags] journal.jsonl\n")
		fmt.Fprintf(stderr, "       obsreport -diff baseline.jsonl [flags] journal.jsonl\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return exitError
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return exitError
	}
	// A ratio of at most 1 makes a journal regress against itself.
	if !(*threshold > 1) {
		fmt.Fprintf(stderr, "obsreport: -threshold must be greater than 1, got %g\n", *threshold)
		return exitError
	}
	if *top < 0 {
		fmt.Fprintf(stderr, "obsreport: -top must be at least 0, got %d\n", *top)
		return exitError
	}

	events, err := loadJournal(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "obsreport: %v\n", err)
		return exitError
	}

	if *diff != "" {
		baseEvents, err := loadJournal(*diff)
		if err != nil {
			fmt.Fprintf(stderr, "obsreport: %v\n", err)
			return exitError
		}
		return runDiff(stdout, stderr, baseEvents, events, *threshold)
	}

	spans, open, err := buildSpans(events)
	if err != nil {
		fmt.Fprintf(stderr, "obsreport: %s: %v\n", fs.Arg(0), err)
		return exitError
	}
	report(stdout, events, spans, open, *top)

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(stderr, "obsreport: %v\n", err)
			return exitError
		}
		if err := writeChrome(f, events); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "obsreport: chrome export: %v\n", err)
			return exitError
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "obsreport: chrome export: %v\n", err)
			return exitError
		}
		fmt.Fprintf(stdout, "\nchrome trace written to %s (open in https://ui.perfetto.dev)\n", *chrome)
	}
	return exitOK
}

func loadJournal(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := readJournal(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// ns renders a nanosecond quantity as a rounded duration.
func ns(v int64) string {
	d := time.Duration(v)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// report renders the standard single-journal analysis: phase attribution
// from the span tree, latency/value histograms, and the top counters from
// the final snapshot.
func report(w io.Writer, events []Event, spans []Span, open, top int) {
	fmt.Fprintf(w, "journal: %d events, %d spans", len(events), len(spans))
	if open > 0 {
		fmt.Fprintf(w, " (%d unterminated — interrupted run?)", open)
	}
	fmt.Fprintln(w)

	if len(spans) > 0 {
		fmt.Fprintln(w, "\nPHASE ATTRIBUTION (span tree)")
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "phase\tcount\ttotal\tself\tmax\t")
		for _, r := range phaseRows(spans) {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t\n",
				r.Name, r.Count, ns(r.TotalNs), ns(r.SelfNs), ns(r.MaxNs))
		}
		tw.Flush()
	}

	snap := lastSnapshot(events)
	hists, used := histRows(snap)
	if len(hists) > 0 {
		fmt.Fprintln(w, "\nHISTOGRAMS (final snapshot)")
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "name\tcount\tp50\tp90\tp99\tmax\ttotal\t")
		for _, h := range hists {
			if h.Nanos {
				fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t\n",
					h.Name, h.Count, ns(h.P50), ns(h.P90), ns(h.P99), ns(h.MaxV), ns(h.Total))
			} else {
				fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t\t\n",
					h.Name, h.Count, h.P50, h.P90, h.P99, h.MaxV)
			}
		}
		tw.Flush()
	}

	if counters := topCounters(snap, used, top); len(counters) > 0 {
		fmt.Fprintf(w, "\nTOP %d COUNTERS (final snapshot)\n", len(counters))
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
		for _, c := range counters {
			fmt.Fprintf(tw, "%s\t%d\t\n", c.Name, c.Value)
		}
		tw.Flush()
	}
}

// runDiff renders the phase-time comparison and returns the exit code:
// exitRegression when any phase slowed by at least threshold.
func runDiff(stdout, stderr io.Writer, baseEvents, events []Event, threshold float64) int {
	baseSpans, _, err := buildSpans(baseEvents)
	if err != nil {
		fmt.Fprintf(stderr, "obsreport: baseline: %v\n", err)
		return exitError
	}
	spans, _, err := buildSpans(events)
	if err != nil {
		fmt.Fprintf(stderr, "obsreport: %v\n", err)
		return exitError
	}
	rows, regressed := diffPhases(baseSpans, spans, threshold)
	fmt.Fprintf(stdout, "PHASE DIFF (threshold %.2fx)\n", threshold)
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "phase\tbaseline\tcurrent\tratio\t\t")
	for _, r := range rows {
		switch {
		case r.OnlyA:
			fmt.Fprintf(tw, "%s\t%s\t-\t\tgone\t\n", r.Name, ns(r.ANs))
		case r.OnlyB:
			fmt.Fprintf(tw, "%s\t-\t%s\t\tnew\t\n", r.Name, ns(r.BNs))
		default:
			mark := ""
			if r.Regressed {
				mark = "REGRESSED"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.2fx\t%s\t\n", r.Name, ns(r.ANs), ns(r.BNs), r.Ratio, mark)
		}
	}
	tw.Flush()
	if regressed {
		fmt.Fprintf(stderr, "obsreport: phase regression of >= %.2fx detected\n", threshold)
		return exitRegression
	}
	return exitOK
}
