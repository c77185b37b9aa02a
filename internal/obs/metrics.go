package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the engine's recorder: lock-free named atomic counters and
// gauges, log-bucketed latency histograms behind the timers the tracer
// feeds, unitless value histograms behind Record, and an optional journal
// sink for events. It is safe for concurrent use: the parallel exploration
// records from worker goroutines. Add, Set, Record, Event, Snapshot,
// SyncJournal and CloseJournal return at a nil receiver, which is what
// Active returns when instrumentation is off. The zero value is not
// usable; use NewMetrics.
//
// Metrics implements expvar.Var (String returns the JSON snapshot), so a
// command can expose it at /debug/vars with expvar.Publish without obs
// importing net/http.
type Metrics struct {
	counters sync.Map // string -> *int64
	gauges   sync.Map // string -> *int64
	timers   sync.Map // string -> *Histogram (ns samples)
	samples  sync.Map // string -> *Histogram (unitless samples)

	// calls counts Add, Set, Record and Event calls; Snapshot reports it
	// as obs.calls, so a test can see a per-node instrumentation call as
	// a jump in one number.
	calls atomic.Int64

	mu      sync.Mutex
	journal *Journal
}

// NewMetrics returns an empty recorder.
func NewMetrics() *Metrics { return &Metrics{} }

// SetJournal attaches (or detaches, with nil) the journal that Event writes
// to.
func (m *Metrics) SetJournal(j *Journal) {
	m.mu.Lock()
	m.journal = j
	m.mu.Unlock()
}

// SyncJournal flushes the attached journal's buffered tail to its sink;
// a no-op without a journal. Call it before reading the sink and on
// interrupt paths, where the tail holds the events explaining the stop.
func (m *Metrics) SyncJournal() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Sync()
}

// CloseJournal flushes and closes the attached journal; a no-op without
// one. Forced-exit paths (a second SIGINT) call it instead of SyncJournal
// so the buffered tail reaches the sink before the process dies and the
// journal stops accepting writes that would race the exit.
func (m *Metrics) CloseJournal() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// JournalErr returns the attached journal's sticky write error, or nil when
// no journal is attached or every emit succeeded.
func (m *Metrics) JournalErr() error {
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Err()
}

// cell returns the *int64 registered under name in tab, creating it on
// first use.
func cell(tab *sync.Map, name string) *int64 {
	if p, ok := tab.Load(name); ok {
		return p.(*int64)
	}
	p, _ := tab.LoadOrStore(name, new(int64))
	return p.(*int64)
}

// Add increments a named counter.
func (m *Metrics) Add(counter string, delta int64) {
	if m == nil {
		return
	}
	m.calls.Add(1)
	atomic.AddInt64(cell(&m.counters, counter), delta)
}

// Set stores a named gauge value.
func (m *Metrics) Set(gauge string, v int64) {
	if m == nil {
		return
	}
	m.calls.Add(1)
	atomic.StoreInt64(cell(&m.gauges, gauge), v)
}

// hist returns the *Histogram registered under name in tab, creating it
// on first use.
func hist(tab *sync.Map, name string) *Histogram {
	if p, ok := tab.Load(name); ok {
		return p.(*Histogram)
	}
	p, _ := tab.LoadOrStore(name, &Histogram{})
	return p.(*Histogram)
}

// Observe records one duration sample into the timer's log-bucketed
// nanosecond histogram. The tracer feeds it, one span.<name> sample per
// span.
func (m *Metrics) Observe(timer string, d time.Duration) {
	hist(&m.timers, timer).Record(d.Nanoseconds())
}

// Record accumulates one unitless sample (a width, a ratio, an imbalance
// percentage) into a named value histogram.
func (m *Metrics) Record(sample string, v int64) {
	if m == nil {
		return
	}
	m.calls.Add(1)
	hist(&m.samples, sample).Record(v)
}

// Timer returns the latency histogram behind a timer name, or nil when the
// timer was never observed.
func (m *Metrics) Timer(name string) *Histogram {
	if p, ok := m.timers.Load(name); ok {
		return p.(*Histogram)
	}
	return nil
}

// Sample returns the value histogram behind a Record name, or nil when the
// name was never recorded.
func (m *Metrics) Sample(name string) *Histogram {
	if p, ok := m.samples.Load(name); ok {
		return p.(*Histogram)
	}
	return nil
}

// Event emits a structured run event: when a journal is attached it is
// written as one JSONL line carrying the fields and a snapshot of all
// counters and gauges; without a journal the event is dropped. Events are
// rare — per run phase, not per state — so they may snapshot counters.
func (m *Metrics) Event(name string, fields ...F) {
	if m == nil {
		return
	}
	m.calls.Add(1)
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return
	}
	j.Emit(name, fields, m.Snapshot())
}

// Counter returns the current value of a counter (0 if never touched).
func (m *Metrics) Counter(name string) int64 {
	if p, ok := m.counters.Load(name); ok {
		return atomic.LoadInt64(p.(*int64))
	}
	return 0
}

// Snapshot returns every counter and gauge by name. Timers contribute six
// derived entries — <name>.count, <name>.total_ns, <name>.max_ns, and the
// histogram quantiles <name>.p50_ns/.p90_ns/.p99_ns — and value
// histograms contribute <name>.count/.max/.p50/.p90/.p99, so the journal's
// per-event counter snapshots carry full latency distributions. obs.calls
// is the number of Add, Set, Record and Event calls so far. When the
// attached journal has dropped events after a write error, the snapshot
// also reports journal.dropped. A nil Metrics has no snapshot.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	out := map[string]int64{"obs.calls": m.calls.Load()}
	m.counters.Range(func(k, v any) bool {
		out[k.(string)] = atomic.LoadInt64(v.(*int64))
		return true
	})
	m.gauges.Range(func(k, v any) bool {
		out[k.(string)] = atomic.LoadInt64(v.(*int64))
		return true
	})
	m.timers.Range(func(k, v any) bool {
		h := v.(*Histogram)
		name := k.(string)
		out[name+".count"] = h.Count()
		out[name+".total_ns"] = h.Sum()
		out[name+".max_ns"] = h.Max()
		out[name+".p50_ns"] = h.Quantile(0.50)
		out[name+".p90_ns"] = h.Quantile(0.90)
		out[name+".p99_ns"] = h.Quantile(0.99)
		return true
	})
	m.samples.Range(func(k, v any) bool {
		h := v.(*Histogram)
		name := k.(string)
		out[name+".count"] = h.Count()
		out[name+".max"] = h.Max()
		out[name+".p50"] = h.Quantile(0.50)
		out[name+".p90"] = h.Quantile(0.90)
		out[name+".p99"] = h.Quantile(0.99)
		return true
	})
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j != nil {
		if d := j.Dropped(); d > 0 {
			out["journal.dropped"] = d
		}
	}
	return out
}

// WriteText renders the snapshot as sorted "name value" lines.
func (m *Metrics) WriteText(w io.Writer) error {
	snap := m.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", k, snap[k]); err != nil {
			return err
		}
	}
	return nil
}

// String implements expvar.Var.
func (m *Metrics) String() string {
	data, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(data)
}
