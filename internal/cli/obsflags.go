package cli

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// ObsFlags holds the shared observability flags of the command-line tools.
type ObsFlags struct {
	// Stats prints the final counter/gauge/histogram table to stderr on
	// stop.
	Stats bool
	// Journal, when non-empty, is the path of a JSONL run-event journal;
	// it holds the engines' events and their phase spans.
	Journal string
	// Pprof, when non-empty, is an address serving net/http/pprof and
	// /debug/vars (e.g. ":6060").
	Pprof string
	// Progress, when positive, prints a brief counter snapshot to stderr at
	// that interval while the run is live.
	Progress time.Duration
	// RuntimeSample, when positive, samples runtime/metrics (goroutines,
	// heap, GC) at that interval, emitting runtime.sample journal events.
	RuntimeSample time.Duration
}

// RegisterObs registers the shared -stats/-journal/-pprof/-progress/
// -runtime-sample flags on a flag set. Parsing rejects a negative
// interval.
func RegisterObs(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	fs.BoolVar(&f.Stats, "stats", false, "print final engine counters to stderr")
	fs.StringVar(&f.Journal, "journal", "", "write a JSONL run-event journal to `file`")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and /debug/vars on `addr` (e.g. :6060)")
	fs.Var(duration{&f.Progress}, "progress", "print a counter snapshot to stderr every `interval`")
	fs.Var(duration{&f.RuntimeSample}, "runtime-sample", "journal a runtime.sample (goroutines, heap, GC) every `interval`")
	return f
}

// expvarOnce guards the process-global expvar name registration.
var expvarOnce sync.Once

// Enabled reports whether any observability surface was requested.
func (f *ObsFlags) Enabled() bool {
	return f.Stats || f.Journal != "" || f.Pprof != "" || f.Progress > 0 ||
		f.RuntimeSample > 0
}

// Start activates the requested observability surfaces: it installs a
// metrics recorder as the process-wide obs recorder and a span tracer over
// the same metrics, attaches the journal file, publishes the metrics under
// expvar and starts the pprof server, and launches the progress ticker.
// Every span feeds its span.<name> histogram and, with a journal, lands
// there as a span.begin/span.end pair. The returned stop function tears
// all of it down (and prints the -stats table); it must be called before
// the tool prints its final output. When no surface was requested Start is
// a no-op and the engines keep their nil-recorder fast path.
func (f *ObsFlags) Start() (stop func(), err error) {
	if !f.Enabled() {
		return func() {}, nil
	}
	m := obs.NewMetrics()

	var journalFile *os.File
	var journal *obs.Journal
	if f.Journal != "" {
		journalFile, err = os.Create(f.Journal)
		if err != nil {
			return nil, fmt.Errorf("obs: create journal: %w", err)
		}
		journal = obs.NewJournal(journalFile)
		m.SetJournal(journal)
	}

	if f.Pprof != "" {
		expvarOnce.Do(func() { expvar.Publish("engine", m) })
		ln := f.Pprof
		go func() {
			if serveErr := http.ListenAndServe(ln, nil); serveErr != nil {
				fmt.Fprintf(os.Stderr, "obs: pprof server: %v\n", serveErr)
			}
		}()
	}

	var tickerDone chan struct{}
	if f.Progress > 0 {
		tickerDone = make(chan struct{})
		go func() {
			t := time.NewTicker(f.Progress)
			defer t.Stop()
			for {
				select {
				case <-tickerDone:
					return
				case <-t.C:
					fmt.Fprintf(os.Stderr, "progress: nodes=%d edges=%d certify=%d field_nodes=%d\n",
						m.Counter("explore.nodes"), m.Counter("explore.edges"),
						m.Counter("certify.visits"), m.Counter("field.nodes"))
				}
			}
		}()
	}

	var samplerStop func()
	if f.RuntimeSample > 0 {
		samplerStop = obs.StartRuntimeSampler(m, f.RuntimeSample)
	}

	obs.EnableTrace(obs.NewTracer(m, journal))
	obs.Enable(m)
	return func() {
		if samplerStop != nil {
			samplerStop()
		}
		if journal != nil {
			// Final full counter/histogram snapshot: obsreport reads the
			// last snapshot, so samples recorded after the last engine
			// event must not be lost.
			m.Event("run.done")
		}
		obs.DisableTrace()
		obs.Disable()
		if tickerDone != nil {
			close(tickerDone)
		}
		if f.Stats {
			fmt.Fprintln(os.Stderr, "--- engine counters ---")
			if werr := m.WriteText(os.Stderr); werr != nil {
				fmt.Fprintf(os.Stderr, "obs: stats: %v\n", werr)
			}
		}
		if journalFile != nil {
			if serr := m.SyncJournal(); serr != nil {
				fmt.Fprintf(os.Stderr, "obs: journal flush: %v\n", serr)
			} else if jerr := m.JournalErr(); jerr != nil {
				fmt.Fprintf(os.Stderr, "obs: journal: %v\n", jerr)
			}
			if cerr := journalFile.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "obs: journal close: %v\n", cerr)
			}
		}
	}, nil
}
