// Command obsreport analyzes the JSONL run-event journals written by the
// engine tools (-journal; every journal holds the phase spans): it
// attributes run time to phases from the span tree, tabulates counters and latency histograms from the final
// snapshot, exports spans to Chrome Trace Event Format for Perfetto, and
// diffs two journals for phase-time regressions.
//
// This file is the analysis library: journal parsing, span reconstruction,
// phase attribution, snapshot extraction, Chrome export, and the diff.
// main.go owns flags and rendering.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Event is one parsed journal line (the obs eventJSON schema).
type Event struct {
	Event    string           `json:"event"`
	Seq      int64            `json:"seq"`
	TsNs     int64            `json:"ts_ns"`
	Fields   map[string]any   `json:"fields"`
	Counters map[string]int64 `json:"counters"`
}

// maxLine bounds one journal line; counter snapshots grow with the metric
// namespace, not the run, so 16 MiB is far beyond any real line.
const maxLine = 16 << 20

// readJournal parses a JSONL journal. Any malformed line is an error — a
// truncated or corrupt journal must fail loudly, not silently thin out.
func readJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", line, err)
		}
		if ev.Event == "" {
			return nil, fmt.Errorf("journal line %d: missing event name", line)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal line %d: %w", line+1, err)
	}
	return out, nil
}

// Span is one reconstructed span: a matched span.begin/span.end pair.
type Span struct {
	ID, Parent uint64
	Name       string
	Lane       int
	BeginNs    int64 // journal timestamp of span.begin
	EndNs      int64 // journal timestamp of span.end
	DurNs      int64 // measured duration from the span.end event
}

// fieldNum reads a numeric field (JSON numbers decode as float64).
func fieldNum(ev Event, key string) (int64, bool) {
	v, ok := ev.Fields[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	if !ok {
		return 0, false
	}
	return int64(f), true
}

// fieldStr reads a string field.
func fieldStr(ev Event, key string) (string, bool) {
	v, ok := ev.Fields[key]
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

// buildSpans matches span.begin/span.end pairs into completed spans, in
// begin order. open counts spans begun but never ended (an interrupted
// run); they are excluded from the result.
func buildSpans(events []Event) (spans []Span, open int, err error) {
	byID := make(map[uint64]int) // span id -> index into spans
	for _, ev := range events {
		switch ev.Event {
		case "span.begin":
			id, ok := fieldNum(ev, "span")
			if !ok || id <= 0 {
				return nil, 0, fmt.Errorf("span.begin (seq %d) has no span id", ev.Seq)
			}
			name, ok := fieldStr(ev, "name")
			if !ok {
				return nil, 0, fmt.Errorf("span.begin %d (seq %d) has no name", id, ev.Seq)
			}
			if _, dup := byID[uint64(id)]; dup {
				return nil, 0, fmt.Errorf("span id %d begun twice (seq %d)", id, ev.Seq)
			}
			parent, _ := fieldNum(ev, "parent")
			lane, _ := fieldNum(ev, "lane")
			byID[uint64(id)] = len(spans)
			spans = append(spans, Span{
				ID:      uint64(id),
				Parent:  uint64(parent),
				Name:    name,
				Lane:    int(lane),
				BeginNs: ev.TsNs,
				EndNs:   -1,
			})
		case "span.end":
			id, ok := fieldNum(ev, "span")
			if !ok || id <= 0 {
				return nil, 0, fmt.Errorf("span.end (seq %d) has no span id", ev.Seq)
			}
			idx, ok := byID[uint64(id)]
			if !ok {
				return nil, 0, fmt.Errorf("span.end %d (seq %d) without begin", id, ev.Seq)
			}
			if spans[idx].EndNs >= 0 {
				return nil, 0, fmt.Errorf("span id %d ended twice (seq %d)", id, ev.Seq)
			}
			spans[idx].EndNs = ev.TsNs
			if d, ok := fieldNum(ev, "dur_ns"); ok {
				spans[idx].DurNs = d
			} else {
				spans[idx].DurNs = ev.TsNs - spans[idx].BeginNs
			}
		}
	}
	complete := spans[:0]
	for _, s := range spans {
		if s.EndNs < 0 {
			open++
			continue
		}
		complete = append(complete, s)
	}
	return complete, open, nil
}

// PhaseRow aggregates every span of one name: how many ran, their total
// time, the self time (total minus time attributed to direct children),
// and the slowest single span.
type PhaseRow struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
	MaxNs   int64
}

// phaseRows computes the phase-attribution table, sorted by total time
// descending. Self time clamps at zero per span: parallel children (shard
// spans on worker lanes) can sum past their parent's wall time.
func phaseRows(spans []Span) []PhaseRow {
	childNs := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.DurNs
		}
	}
	rows := make(map[string]*PhaseRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &PhaseRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalNs += s.DurNs
		self := s.DurNs - childNs[s.ID]
		if self > 0 {
			r.SelfNs += self
		}
		if s.DurNs > r.MaxNs {
			r.MaxNs = s.DurNs
		}
	}
	out := make([]PhaseRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// lastSnapshot merges every event's counter snapshot, later events
// winning per key — the state of every counter, gauge, and histogram at
// the last event that reported it.
func lastSnapshot(events []Event) map[string]int64 {
	out := make(map[string]int64)
	for _, ev := range events {
		for k, v := range ev.Counters {
			out[k] = v
		}
	}
	return out
}

// histSuffixes are the derived snapshot keys a timer histogram emits;
// sampleSuffixes the unitless variant. A base name owning these keys is
// rendered as a histogram row and its keys excluded from the counter list.
var (
	histSuffixes   = []string{".count", ".total_ns", ".max_ns", ".p50_ns", ".p90_ns", ".p99_ns"}
	sampleSuffixes = []string{".count", ".max", ".p50", ".p90", ".p99"}
)

// HistRow is one latency or value histogram from the final snapshot.
type HistRow struct {
	Name                string
	Nanos               bool // timer (ns) vs unitless sample
	Count, Total        int64
	P50, P90, P99, MaxV int64
}

// histRows extracts histogram rows from a snapshot, sorted by name, and
// returns the set of snapshot keys they consumed.
func histRows(snap map[string]int64) ([]HistRow, map[string]bool) {
	used := make(map[string]bool)
	var out []HistRow
	for k := range snap {
		base, ok := strings.CutSuffix(k, ".p50_ns")
		if ok {
			r := HistRow{
				Name:  base,
				Nanos: true,
				Count: snap[base+".count"],
				Total: snap[base+".total_ns"],
				P50:   snap[base+".p50_ns"],
				P90:   snap[base+".p90_ns"],
				P99:   snap[base+".p99_ns"],
				MaxV:  snap[base+".max_ns"],
			}
			out = append(out, r)
			for _, suf := range histSuffixes {
				used[base+suf] = true
			}
			continue
		}
		base, ok = strings.CutSuffix(k, ".p50")
		if ok {
			r := HistRow{
				Name:  base,
				Count: snap[base+".count"],
				P50:   snap[base+".p50"],
				P90:   snap[base+".p90"],
				P99:   snap[base+".p99"],
				MaxV:  snap[base+".max"],
			}
			out = append(out, r)
			for _, suf := range sampleSuffixes {
				used[base+suf] = true
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, used
}

// CounterRow is one plain counter from the final snapshot.
type CounterRow struct {
	Name  string
	Value int64
}

// topCounters returns the k largest plain counters (histogram-derived keys
// excluded), ties broken by name.
func topCounters(snap map[string]int64, used map[string]bool, k int) []CounterRow {
	out := make([]CounterRow, 0, len(snap))
	for name, v := range snap {
		if used[name] {
			continue
		}
		out = append(out, CounterRow{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// chromeEvent is one Trace Event Format entry (the JSON Array-with-
// metadata flavor Perfetto and chrome://tracing load).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome exports the journal's spans as B/E pairs. Lanes map to
// Chrome tids, so parallel shards render side by side; journal order is
// emission order, which has stack discipline per lane. Spans begun but
// never ended (interrupted runs) are dropped so every B has its E.
func writeChrome(w io.Writer, events []Event) error {
	ended := make(map[uint64]bool)
	for _, ev := range events {
		if ev.Event != "span.end" {
			continue
		}
		if id, ok := fieldNum(ev, "span"); ok {
			ended[uint64(id)] = true
		}
	}
	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}
	began := make(map[uint64]bool)
	for _, ev := range events {
		switch ev.Event {
		case "span.begin":
			id, ok := fieldNum(ev, "span")
			if !ok || !ended[uint64(id)] {
				continue
			}
			name, _ := fieldStr(ev, "name")
			parent, _ := fieldNum(ev, "parent")
			lane, _ := fieldNum(ev, "lane")
			began[uint64(id)] = true
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: name,
				Ph:   "B",
				Ts:   float64(ev.TsNs) / 1e3,
				Pid:  1,
				Tid:  int(lane),
				Args: map[string]any{"span": id, "parent": parent},
			})
		case "span.end":
			id, ok := fieldNum(ev, "span")
			if !ok || !began[uint64(id)] {
				continue
			}
			name, _ := fieldStr(ev, "name")
			lane, _ := fieldNum(ev, "lane")
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: name,
				Ph:   "E",
				Ts:   float64(ev.TsNs) / 1e3,
				Pid:  1,
				Tid:  int(lane),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// DiffRow compares one phase across two journals.
type DiffRow struct {
	Name         string
	ANs, BNs     int64
	Ratio        float64 // BNs/ANs; 0 when the phase is absent from A
	Regressed    bool
	OnlyA, OnlyB bool
}

// diffPhases compares per-phase total span time between a baseline (A)
// and a candidate (B). A phase regresses when it appears in both and B's
// total is at least threshold times A's. Rows sort by B total descending.
func diffPhases(a, b []Span, threshold float64) (rows []DiffRow, regressed bool) {
	totals := func(spans []Span) map[string]int64 {
		m := make(map[string]int64)
		for _, s := range spans {
			m[s.Name] += s.DurNs
		}
		return m
	}
	at, bt := totals(a), totals(b)
	names := make(map[string]bool, len(at)+len(bt))
	for n := range at {
		names[n] = true
	}
	for n := range bt {
		names[n] = true
	}
	for n := range names {
		row := DiffRow{Name: n, ANs: at[n], BNs: bt[n]}
		_, inA := at[n]
		_, inB := bt[n]
		row.OnlyA = inA && !inB
		row.OnlyB = inB && !inA
		if inA && inB && row.ANs > 0 {
			row.Ratio = float64(row.BNs) / float64(row.ANs)
			if row.Ratio >= threshold {
				row.Regressed = true
				regressed = true
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].BNs != rows[j].BNs {
			return rows[i].BNs > rows[j].BNs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, regressed
}
