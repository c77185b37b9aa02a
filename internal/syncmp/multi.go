package syncmp

import (
	"fmt"

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
	// acts lists the model's actions in enumeration order, the
	// failure-free round first; labels[i] is the label of acts[i].
	acts   []multiAction
	labels []string
	inits  core.InitMemo
}

// multiAction is one action of a MultiModel: its new omissions, the
// processes they fail, and the index of the first action after those that
// extend it (its subtree in the depth-first order).
type multiAction struct {
	oms   []Omission
	procs uint64
	next  int
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
		tab:         NewTable(p, n),
	}
	m.buildActions()
	m.SuccessorCache = core.NewKeyedCache(m)
	return m
}

// buildActions lists the failure-free round and then every combination
// of up to maxPerRound new omissions, depth first: each combination (j,[k])
// of a process j and a prefix set [k], by increasing j and then k, is
// followed by its extensions by processes above j. The label of a
// combination joins its omissions' "(j,[k])" labels with "+".
func (m *MultiModel) buildActions() {
	prefix := ActionLabels(m.n)
	m.acts, m.labels = []multiAction{{}}, []string{prefix[0]}
	var walk func(start int, oms []Omission, procs uint64, label string)
	walk = func(start int, oms []Omission, procs uint64, label string) {
		if len(oms) >= m.maxPerRound {
			return
		}
		for j := start; j < m.n; j++ {
			for k := 1; k <= m.n; k++ {
				sub := append(oms[:len(oms):len(oms)], Omission{J: j, K: k})
				l := prefix[PrefixLabel(m.n, j, k)]
				if label != "" {
					l = label + "+" + l
				}
				i := len(m.acts)
				m.acts = append(m.acts, multiAction{oms: sub, procs: procs | 1<<uint(j)})
				m.labels = append(m.labels, l)
				walk(j+1, sub, procs|1<<uint(j), l)
				m.acts[i].next = len(m.acts)
			}
		}
	}
	walk(0, nil, 0, "")
}

// Name implements core.Model.
func (m *MultiModel) Name() string { return m.name }

// N returns the number of processes.
func (m *MultiModel) N() int { return m.n }

// T returns the failure budget.
func (m *MultiModel) T() int { return m.t }

// Inits implements core.Model.
func (m *MultiModel) Inits() []core.State {
	return m.inits.Get(m.n, func(in []int) core.State { return m.Initial(in) })
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

// Labels implements core.KeyedSuccessor: "noop", then every combination's
// label in enumeration order.
func (m *MultiModel) Labels() []string { return m.labels }

// SuccessorsKeyed implements core.KeyedSuccessor: the failure-free round
// plus every combination of up to maxPerRound new failures of processes
// not failed at x, within the remaining budget; the embedded cache serves
// Successors. A combination that fails a failed process, or too many, is
// skipped with its extensions. All actions share one RoundMemo.
func (m *MultiModel) SuccessorsKeyed(x core.State, p core.Prober) {
	s, ok := x.(*State)
	if !ok {
		return
	}
	limit := min(m.maxPerRound, m.t-s.FailedCount())
	r := m.tab.Memo(s, p, true, true, false)
	r.omitMany(0, nil)
	for i := 1; i < len(m.acts); {
		a := &m.acts[i]
		if a.procs&s.failed != 0 || len(a.oms) > limit {
			i = a.next
			continue
		}
		r.omitMany(uint32(i), a.oms)
		i++
	}
	r.Done()
}
