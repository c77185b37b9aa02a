// Package obs is the engine's zero-dependency observability layer: named
// atomic counters, gauges, and value histograms behind a Recorder
// interface, hierarchical phase spans behind a Tracer, and a structured
// JSONL run-event journal with monotonic timestamps.
//
// The package-level recorder is disabled by default. Hot paths load it once
// per operation (obs.Active()) and pay a single nil-check when
// instrumentation is off:
//
//	rec := obs.Active()
//	...
//	if rec != nil {
//		rec.Add("explore.nodes", int64(len(frontier)))
//	}
//
// Counter and gauge names are dotted lowercase paths grouped by subsystem
// (explore.*, cache.*, field.*, certify.*, knowledge.*, sim.*).
// Counters only ever grow; gauges are point-in-time snapshots. Phases are
// timed only by spans (see Tracer): each span's duration lands in the
// span.<name> latency histogram.
package obs

import "sync/atomic"

// Recorder receives engine instrumentation. Implementations must be safe
// for concurrent use: the parallel exploration and field sweeps record from
// worker goroutines.
type Recorder interface {
	// Add increments a named counter.
	Add(counter string, delta int64)
	// Set stores a named gauge value.
	Set(gauge string, v int64)
	// Record accumulates one unitless sample (a width, a ratio, an
	// imbalance percentage) into a named value histogram.
	Record(sample string, v int64)
	// Event emits a structured run-event (journaled when a journal is
	// attached, dropped otherwise). Events are rare — per run phase, not
	// per state — so they may snapshot counters.
	Event(name string, fields ...F)
}

// F is one key/value field of a run event.
type F struct {
	Key   string
	Value any
}

// recorderBox holds the active Recorder, so that an atomic pointer can
// publish an interface value.
type recorderBox struct{ r Recorder }

var active atomic.Pointer[recorderBox] // nil when disabled

// Active returns the process-wide recorder, or nil when instrumentation is
// disabled (the default).
func Active() Recorder {
	if b := active.Load(); b != nil {
		return b.r
	}
	return nil
}

// Enable installs r as the process-wide recorder.
func Enable(r Recorder) { active.Store(&recorderBox{r: r}) }

// Disable turns instrumentation off; Active returns nil afterwards.
func Disable() { active.Store(nil) }
