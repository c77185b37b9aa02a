package obs

import (
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a run. IDs come from a process-wide
// atomic allocator, so they are unique across goroutines and lanes; 0 is
// the root (no parent).
type SpanID uint64

// TraceSpan is one live span, returned by Tracer.Begin and handed back to
// Tracer.End. It is a value — beginning a span allocates nothing — and it
// is not shared: the goroutine that begins a span ends it. Pass span.ID to
// Begin on child work (possibly on another goroutine) to link the
// hierarchy.
type TraceSpan struct {
	// ID is the span's unique id; Parent is the enclosing span's (0 for a
	// root span).
	ID, Parent SpanID
	name       string
	lane       int
	t0         time.Time
}

// Tracer is the engines' one phase timer: it feeds each span's duration
// into the metrics' span.<name> latency histogram and, when a journal is
// attached, journals the span as a span.begin/span.end event pair. Span
// events carry no counter snapshot — a span is cheap by design (two
// journal lines and one histogram record) so the engines can afford one
// per layer, shard, or phase.
//
// Lanes model the engine's worker structure: lane 0 is the coordinating
// goroutine, lane k a parallel worker/shard. The Chrome-trace exporter
// (cmd/obsreport -chrome) maps lanes to threads, so parallel shards render
// side by side in Perfetto.
//
// The process-wide tracer follows the recorder's contract: Trace() returns
// nil when instrumentation is off, and Begin, BeginLane and End return at
// a nil receiver (Begin with the zero TraceSpan). Sites still begin a span
// under a nil check, which skips the call and its deferred End; that
// check is the disabled cost. cli.ObsFlags installs a tracer whenever it
// installs a recorder.
type Tracer struct {
	next atomic.Uint64
	m    *Metrics
	j    *Journal
}

// NewTracer returns a tracer feeding span-duration histograms into m and
// journaling spans to j. Either may be nil: without a journal the tracer
// writes no events, without metrics it records no histogram.
func NewTracer(m *Metrics, j *Journal) *Tracer {
	return &Tracer{m: m, j: j}
}

var activeTracer atomic.Pointer[Tracer] // nil when disabled

// Trace returns the process-wide tracer, or nil when instrumentation is
// disabled (the default).
func Trace() *Tracer { return activeTracer.Load() }

// EnableTrace installs t as the process-wide tracer.
func EnableTrace(t *Tracer) { activeTracer.Store(t) }

// DisableTrace turns span tracing off; Trace returns nil afterwards.
func DisableTrace() { activeTracer.Store(nil) }

// Begin starts a lane-0 span under parent (0 = root).
func (t *Tracer) Begin(name string, parent SpanID) TraceSpan {
	return t.BeginLane(name, parent, 0)
}

// BeginLane starts a span on the given lane. The span.begin event records
// the id, parent link, name, and lane; End completes the pair.
func (t *Tracer) BeginLane(name string, parent SpanID, lane int) TraceSpan {
	if t == nil {
		return TraceSpan{}
	}
	s := TraceSpan{
		ID:     SpanID(t.next.Add(1)),
		Parent: parent,
		name:   name,
		lane:   lane,
		t0:     time.Now(),
	}
	if t.j != nil {
		t.j.Emit("span.begin", []F{
			{Key: "span", Value: uint64(s.ID)},
			{Key: "parent", Value: uint64(s.Parent)},
			{Key: "name", Value: name},
			{Key: "lane", Value: lane},
		}, nil)
	}
	return s
}

// End completes a span: it journals span.end with the measured duration
// and records the duration into the span.<name> latency histogram. Ending
// the zero TraceSpan, or ending on a nil tracer, is a no-op, so an
// early-return path that never began its span can End unconditionally.
func (t *Tracer) End(s TraceSpan) {
	if t == nil || s.ID == 0 {
		return
	}
	d := time.Since(s.t0)
	if t.j != nil {
		t.j.Emit("span.end", []F{
			{Key: "span", Value: uint64(s.ID)},
			{Key: "name", Value: s.name},
			{Key: "lane", Value: s.lane},
			{Key: "dur_ns", Value: d.Nanoseconds()},
		}, nil)
	}
	if t.m != nil {
		t.m.Observe("span."+s.name, d)
	}
}
