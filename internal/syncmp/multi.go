package syncmp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/proto"
)

// MultiModel generalizes the S^t layering to allow up to MaxPerRound new
// omission failures in a single round, as in the closing discussion of
// Section 6 (the Dwork–Moses "wasted faults" analysis): by failing k+w
// processes within the first k rounds the environment wastes w faults, and
// bivalence must end w rounds earlier. The failure budget t still caps the
// run's total failures.
type MultiModel struct {
	*core.SuccessorCache
	tab         *Table
	p           proto.SyncProtocol
	n           int
	t           int
	maxPerRound int
	name        string
	labels      []string // PrefixLabels(n)
	inits       core.InitMemo
}

var _ core.Model = (*MultiModel)(nil)

// NewStMulti returns the t-resilient synchronous model whose layers allow
// up to maxPerRound simultaneous new failures.
func NewStMulti(p proto.SyncProtocol, n, t, maxPerRound int) *MultiModel {
	m := &MultiModel{
		p:           p,
		n:           n,
		t:           t,
		maxPerRound: maxPerRound,
		name:        fmt.Sprintf("syncmp/StMulti(n=%d,t=%d,c=%d,%s)", n, t, maxPerRound, p.Name()),
		labels:      PrefixLabels(n),
		tab:         NewTable(p, n),
	}
	m.SuccessorCache = core.NewKeyedCache(m)
	return m
}

// Name implements core.Model.
func (m *MultiModel) Name() string { return m.name }

// N returns the number of processes.
func (m *MultiModel) N() int { return m.n }

// T returns the failure budget.
func (m *MultiModel) T() int { return m.t }

// Inits implements core.Model.
func (m *MultiModel) Inits() []core.State {
	return m.inits.Get(func() []core.State {
		out := make([]core.State, 0, 1<<uint(m.n))
		for a := 0; a < 1<<uint(m.n); a++ {
			out = append(out, m.Initial(binaryInputs(m.n, a)))
		}
		return out
	})
}

// Initial builds the initial state for an explicit input assignment.
func (m *MultiModel) Initial(inputs []int) *State {
	locals := make([]string, m.n)
	for i := range locals {
		locals[i] = m.p.Init(m.n, i, inputs[i])
	}
	return m.tab.NewState(0, locals, 0, true, inputs)
}

// Omission is one process's new failure in a round: j omits to the prefix
// set [K] (1 <= K <= n) and is silenced afterwards.
type Omission struct {
	J int
	K int
}

// AppendCacheKey implements core.KeyedSuccessor through the model's table.
func (m *MultiModel) AppendCacheKey(dst []byte, x core.State) []byte {
	return m.tab.AppendCacheKey(dst, x)
}

// SuccessorsKeyed implements core.KeyedSuccessor: the failure-free round
// plus every combination of up to maxPerRound new failures within the
// remaining budget; the embedded cache serves Successors. All actions
// share one RoundMemo.
func (m *MultiModel) SuccessorsKeyed(x core.State, p core.Prober) ([]core.Succ, []uint32) {
	s, ok := x.(*State)
	if !ok {
		return nil, nil
	}
	r := m.tab.Memo(s, p, m.n*m.n+1, true, true, false)
	r.omitMany("noop", nil)
	budget := m.t - s.FailedCount()
	limit := m.maxPerRound
	if budget < limit {
		limit = budget
	}
	var alive []int
	for j := 0; j < m.n; j++ {
		if !s.FailedAt(j) {
			alive = append(alive, j)
		}
	}
	var build func(start int, oms []Omission)
	build = func(start int, oms []Omission) {
		if len(oms) > 0 {
			r.omitMany(m.omissionLabel(oms), oms)
		}
		if len(oms) == limit {
			return
		}
		for idx := start; idx < len(alive); idx++ {
			for k := 1; k <= m.n; k++ {
				next := append(append([]Omission(nil), oms...), Omission{J: alive[idx], K: k})
				build(idx+1, next)
			}
		}
	}
	build(0, nil)
	return r.Done()
}

// omissionLabel joins the omissions' (j,[k]) labels with "+".
func (m *MultiModel) omissionLabel(oms []Omission) string {
	parts := make([]string, len(oms))
	for i, om := range oms {
		parts[i] = m.labels[om.J*m.n+om.K-1]
	}
	return strings.Join(parts, "+")
}
