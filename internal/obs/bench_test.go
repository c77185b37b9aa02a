package obs_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/obs"
)

// sinkTracer keeps the measured load observable so the compiler cannot
// delete the disabled-path check under test.
var sinkTracer *obs.Tracer

// BenchmarkObsDisabledSpan prices a span instrumentation site with obs
// disabled: one atomic load plus a nil check. This is the cost every
// engine phase pays per operation when no observability flag is given;
// the observability contract budgets it at <= 2 ns/op.
func BenchmarkObsDisabledSpan(b *testing.B) {
	obs.DisableTrace()
	for i := 0; i < b.N; i++ {
		if tr := obs.Trace(); tr != nil {
			sinkTracer = tr
		}
	}
}

// BenchmarkObsDisabledRecorder prices a counter site with instrumentation
// off: the unguarded obs.Active().Add call sites make, one atomic load and
// Add's return at a nil receiver. Budget: <= 2 ns/op, as for the tracer.
func BenchmarkObsDisabledRecorder(b *testing.B) {
	obs.Disable()
	for i := 0; i < b.N; i++ {
		obs.Active().Add("bench.count", 1)
	}
}

// BenchmarkObsHistogramRecord prices one enabled histogram sample: bucket
// index math plus three atomic adds and a CAS-max. Budget: <= 30 ns/op
// uncontended.
func BenchmarkObsHistogramRecord(b *testing.B) {
	var h obs.Histogram
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
	if h.Count() != int64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}

// BenchmarkObsHistogramRecordParallel hammers one histogram from all
// procs — the shape of per-shard intern latencies landing in one shared
// histogram.
func BenchmarkObsHistogramRecordParallel(b *testing.B) {
	var h obs.Histogram
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			h.Record(v)
			v++
		}
	})
	if h.Count() != int64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}

// BenchmarkObsMetricsObserve prices one enabled timer observation: a
// sync.Map hit plus the histogram record.
func BenchmarkObsMetricsObserve(b *testing.B) {
	m := obs.NewMetrics()
	for i := 0; i < b.N; i++ {
		m.Observe("bench.time", time.Duration(i))
	}
}

// BenchmarkObsSpanPair prices one enabled begin/end span pair: two
// buffered journal lines plus one histogram record. This bounds how many
// spans a traced run can afford — per phase/layer/shard, never per node.
func BenchmarkObsSpanPair(b *testing.B) {
	m := obs.NewMetrics()
	tr := obs.NewTracer(m, obs.NewJournal(io.Discard))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.End(tr.Begin("bench", 0))
	}
}
