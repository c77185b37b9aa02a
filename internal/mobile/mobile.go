// Package mobile implements M^mf, the synchronous model with a single mobile
// (omission) failure per round, due to Santoro & Widmayer and analyzed in
// Section 5 of the paper.
//
// In every round the environment performs an action (j, G): all messages
// sent in that round by process j to the processes in G are lost. The
// identity of the omitting process may change from round to round, nothing
// is recorded, and nobody is silenced: the environment's local state is
// constant (we keep only the round number). A process is faulty in a run
// exactly if it is silenced forever from some round on, so no process is
// ever failed at a finite state — the model displays no finite failure.
//
// The layering S1 restricts the environment to prefix omission sets:
// S1(x) = { x(j,[k]) : 1 <= j <= n, 0 <= k <= n }.
package mobile

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/syncmp"
)

// Model is M^mf with the S1 layering. It implements core.Model. Successor
// enumeration is memoized in an embedded per-model cache shared by every
// analysis pass over the same model value.
type Model struct {
	*core.SuccessorCache
	tab    *syncmp.Table
	p      proto.SyncProtocol
	n      int
	name   string
	labels []string // syncmp.ActionLabels(n)
	inits  core.InitMemo
}

var _ core.Model = (*Model)(nil)

// New returns M^mf with the S1 layering for protocol p on n processes.
func New(p proto.SyncProtocol, n int) *Model {
	m := &Model{
		p:      p,
		n:      n,
		name:   fmt.Sprintf("mobile/S1(n=%d,%s)", n, p.Name()),
		labels: syncmp.ActionLabels(n),
		tab:    syncmp.NewTable(p, n),
	}
	m.SuccessorCache = core.NewKeyedCache(m)
	return m
}

// Name implements core.Model.
func (m *Model) Name() string { return m.name }

// Protocol returns the protocol the model runs.
func (m *Model) Protocol() proto.SyncProtocol { return m.p }

// N returns the number of processes.
func (m *Model) N() int { return m.n }

// Inits implements core.Model: Con_0 in binary counting order.
func (m *Model) Inits() []core.State {
	return m.inits.Get(func() []core.State {
		out := make([]core.State, 0, 1<<uint(m.n))
		for a := 0; a < 1<<uint(m.n); a++ {
			inputs := make([]int, m.n)
			for i := 0; i < m.n; i++ {
				inputs[i] = (a >> uint(i)) & 1
			}
			out = append(out, m.Initial(inputs))
		}
		return out
	})
}

// Initial builds the initial state for an explicit input assignment.
func (m *Model) Initial(inputs []int) *syncmp.State {
	locals := make([]string, m.n)
	for i := range locals {
		locals[i] = m.p.Init(m.n, i, inputs[i])
	}
	return m.tab.NewState(0, locals, 0, false, inputs)
}

// AppendCacheKey implements core.KeyedSuccessor through the model's
// local-state table.
func (m *Model) AppendCacheKey(dst []byte, x core.State) []byte {
	return m.tab.AppendCacheKey(dst, x)
}

// Labels implements core.KeyedSuccessor: syncmp.ActionLabels(n).
func (m *Model) Labels() []string { return m.labels }

// SuccessorsKeyed implements core.KeyedSuccessor: one successor per action
// (j,[k]); the embedded cache serves Successors. The failure-free
// successors x(j,[0]) coincide for all j and are emitted once, labeled
// "noop". All actions share one syncmp.RoundMemo.
func (m *Model) SuccessorsKeyed(x core.State, p core.Prober) {
	s, ok := x.(*syncmp.State)
	if !ok {
		return
	}
	r := m.tab.Memo(s, p, false, false, false)
	r.Omit(0, 0, 0)
	for j := 0; j < m.n; j++ {
		for k := 1; k <= m.n; k++ {
			r.Omit(syncmp.PrefixLabel(m.n, j, k), j, syncmp.OmitMask(k))
		}
	}
	r.Done()
}

// FullModel is M^mf itself: every environment action (j, G) with an
// arbitrary omission set G, not only the prefix sets of S1. The S1
// submodel's layer is a subset of every FullModel layer (the executable
// content of "S1 is a layering of M^mf"), and impossibility established in
// the submodel holds a fortiori here — both are checked in the package
// tests.
type FullModel struct {
	*core.SuccessorCache
	inner *Model
	n     int
	name  string
	// labels[0] is "noop", labels[fullLabel(n, j, g)] the label of action
	// (j, G=g), g >= 1.
	labels []string
}

var _ core.Model = (*FullModel)(nil)

// NewFull returns the unrestricted M^mf for protocol p on n processes.
func NewFull(p proto.SyncProtocol, n int) *FullModel {
	m := &FullModel{
		inner: New(p, n),
		n:     n,
		name:  fmt.Sprintf("mobile/full(n=%d,%s)", n, p.Name()),
	}
	m.labels = make([]string, 0, 1+n*(1<<uint(n)-1))
	m.labels = append(m.labels, "noop")
	for j := 0; j < n; j++ {
		for g := 1; g < 1<<uint(n); g++ {
			m.labels = append(m.labels, fmt.Sprintf("(%d,G=%0*b)", j, n, g))
		}
	}
	m.SuccessorCache = core.NewKeyedCache(m)
	return m
}

// fullLabel returns the index of action (j, G=g), g >= 1, in a
// FullModel's labels.
func fullLabel(n, j int, g uint64) uint32 { return uint32(1 + j*(1<<uint(n)-1) + int(g) - 1) }

// Name implements core.Model.
func (m *FullModel) Name() string { return m.name }

// N returns the number of processes.
func (m *FullModel) N() int { return m.n }

// Inits implements core.Model: the same Con_0 as the S1 submodel.
func (m *FullModel) Inits() []core.State { return m.inner.Inits() }

// Initial builds the initial state for an explicit input assignment.
func (m *FullModel) Initial(inputs []int) *syncmp.State { return m.inner.Initial(inputs) }

// AppendCacheKey implements core.KeyedSuccessor through the S1 submodel's
// local-state table, which the two models share.
func (m *FullModel) AppendCacheKey(dst []byte, x core.State) []byte {
	return m.inner.tab.AppendCacheKey(dst, x)
}

// Labels implements core.KeyedSuccessor: "noop", then the (j, G) actions
// by j and then G.
func (m *FullModel) Labels() []string { return m.labels }

// SuccessorsKeyed implements core.KeyedSuccessor: one successor per (j, G)
// with G any non-empty subset, plus the failure-free action; the embedded
// cache serves Successors. All actions share one syncmp.RoundMemo.
func (m *FullModel) SuccessorsKeyed(x core.State, p core.Prober) {
	s, ok := x.(*syncmp.State)
	if !ok {
		return
	}
	r := m.inner.tab.Memo(s, p, false, false, false)
	r.Omit(0, 0, 0)
	for j := 0; j < m.n; j++ {
		for g := uint64(1); g < 1<<uint(m.n); g++ {
			r.Omit(fullLabel(m.n, j, g), j, g)
		}
	}
	r.Done()
}
