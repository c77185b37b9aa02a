// Package obs is the engine's zero-dependency observability layer: named
// atomic counters, gauges, and value histograms in a Metrics, hierarchical
// phase spans behind a Tracer, and a structured JSONL run-event journal
// with monotonic timestamps.
//
// The package-level recorder is disabled by default: Active returns a nil
// *Metrics, and every writer method returns at a nil receiver, so an
// unguarded call cannot panic. Hot paths load the recorder once per
// operation and call it directly:
//
//	rec := obs.Active()
//	...
//	rec.Add("explore.nodes", int64(len(frontier)))
//
// A nil check stays only where it skips work done for instrumentation
// alone: building Event fields (each boxes into an any), reading the
// clock, or beginning a span.
//
// Counter and gauge names are dotted lowercase paths grouped by subsystem
// (explore.*, cache.*, field.*, certify.*, knowledge.*, sim.*).
// Counters only ever grow; gauges are point-in-time snapshots. Phases are
// timed only by spans (see Tracer): each span's duration lands in the
// span.<name> latency histogram.
package obs

import "sync/atomic"

// F is one key/value field of a run event.
type F struct {
	Key   string
	Value any
}

var active atomic.Pointer[Metrics] // nil when disabled

// Active returns the process-wide recorder, or nil when instrumentation is
// disabled (the default).
func Active() *Metrics { return active.Load() }

// Enable installs m as the process-wide recorder.
func Enable(m *Metrics) { active.Store(m) }

// Disable turns instrumentation off; Active returns nil afterwards.
func Disable() { active.Store(nil) }
