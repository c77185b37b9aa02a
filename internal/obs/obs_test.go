package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestActiveDefaultsToNil(t *testing.T) {
	obs.Disable()
	if obs.Active() != nil {
		t.Fatal("Active() != nil with instrumentation disabled")
	}
}

func TestEnableDisable(t *testing.T) {
	m := obs.NewMetrics()
	obs.Enable(m)
	defer obs.Disable()
	if obs.Active() != m {
		t.Fatal("Active() did not return the enabled recorder")
	}
	obs.Disable()
	if obs.Active() != nil {
		t.Fatal("Active() != nil after Disable")
	}
}

// TestNilReceivers: the disabled recorder and tracer are nil, and every
// writer method returns at a nil receiver, so an unguarded call cannot
// panic; the calls a site makes unguarded allocate nothing.
func TestNilReceivers(t *testing.T) {
	var m *obs.Metrics
	var tr *obs.Tracer
	m.Event("run.done", obs.F{Key: "nodes", Value: 1})
	if snap := m.Snapshot(); snap != nil {
		t.Errorf("nil Metrics snapshot = %v, want nil", snap)
	}
	if err := m.SyncJournal(); err != nil {
		t.Errorf("nil Metrics SyncJournal = %v", err)
	}
	if err := m.CloseJournal(); err != nil {
		t.Errorf("nil Metrics CloseJournal = %v", err)
	}
	if sp := tr.BeginLane("phase.shard", 1, 2); sp != (obs.TraceSpan{}) {
		t.Errorf("nil Tracer BeginLane = %+v, want the zero span", sp)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Add("c", 1)
		m.Set("g", 1)
		m.Record("s", 1)
		tr.End(tr.Begin("phase", 0))
	})
	if allocs != 0 {
		t.Errorf("nil Add, Set, Record, Begin and End allocated %.0f times, want 0", allocs)
	}
}

// TestCallsCounted: obs.calls counts every Add, Set, Record and Event call,
// and nothing else the recorder does.
func TestCallsCounted(t *testing.T) {
	m := obs.NewMetrics()
	if got := m.Snapshot()["obs.calls"]; got != 0 {
		t.Fatalf("fresh obs.calls = %d, want 0", got)
	}
	m.Add("c", 1)
	m.Set("g", 2)
	m.Record("s", 3)
	m.Event("e")
	m.Observe("t", time.Millisecond)
	tr := obs.NewTracer(m, nil)
	tr.End(tr.Begin("phase", 0))
	if got := m.Snapshot()["obs.calls"]; got != 4 {
		t.Errorf("obs.calls = %d, want 4", got)
	}
}

func TestCountersGaugesTimers(t *testing.T) {
	m := obs.NewMetrics()
	m.Add("a.count", 2)
	m.Add("a.count", 3)
	m.Set("a.gauge", 7)
	m.Set("a.gauge", 4)
	m.Observe("a.time", 10*time.Millisecond)
	m.Observe("a.time", 30*time.Millisecond)

	if got := m.Counter("a.count"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	snap := m.Snapshot()
	if got := snap["a.gauge"]; got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	if snap["a.time.count"] != 2 {
		t.Errorf("timer count = %d, want 2", snap["a.time.count"])
	}
	if snap["a.time.max_ns"] != (30 * time.Millisecond).Nanoseconds() {
		t.Errorf("timer max = %d", snap["a.time.max_ns"])
	}
	if snap["a.time.total_ns"] != (40 * time.Millisecond).Nanoseconds() {
		t.Errorf("timer total = %d", snap["a.time.total_ns"])
	}
	if _, ok := snap["never.touched"]; ok || m.Counter("never.touched") != 0 {
		t.Error("untouched names should read 0")
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := obs.NewMetrics()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add("c", 1)
				m.Set("g", int64(i))
				m.Observe("t", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("c"); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if m.Snapshot()["t.count"] != workers*per {
		t.Error("timer sample count wrong")
	}
}

// TestSpan: a tracer without a journal still times its spans into the
// span.<name> histogram, and writes no event, not even to the journal its
// metrics carry.
func TestSpan(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	m := obs.NewMetrics()
	m.SetJournal(j)
	tr := obs.NewTracer(m, nil)
	sp := tr.Begin("phase", 0)
	time.Sleep(time.Millisecond)
	tr.End(sp)
	tr.End(tr.BeginLane("phase.shard", sp.ID, 1))
	snap := m.Snapshot()
	if snap["span.phase.count"] != 1 || snap["span.phase.total_ns"] < time.Millisecond.Nanoseconds() {
		t.Errorf("span.phase not fed: %v", snap)
	}
	if snap["span.phase.shard.count"] != 1 {
		t.Errorf("span.phase.shard not fed: %v", snap)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 || buf.Len() != 0 {
		t.Errorf("tracer without a journal emitted %d events: %q", j.Len(), buf.String())
	}
}

func TestWriteTextSortedAndJSON(t *testing.T) {
	m := obs.NewMetrics()
	m.Add("b.second", 2)
	m.Add("a.first", 1)
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Index(text, "a.first") > strings.Index(text, "b.second") {
		t.Errorf("text export not sorted:\n%s", text)
	}
	// String() is the expvar.Var form of the same snapshot, as JSON.
	var decoded map[string]int64
	if err := json.Unmarshal([]byte(m.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["a.first"] != 1 || decoded["b.second"] != 2 {
		t.Errorf("json export = %v", decoded)
	}
}
