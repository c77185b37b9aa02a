package syncmp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proto"
)

// Model is the t-resilient synchronous message-passing model equipped with
// one of the paper's layerings (S1 or S^t). It implements core.Model.
// Successor enumeration is memoized in an embedded per-model cache shared
// by every analysis pass over the same model value.
type Model struct {
	*core.SuccessorCache
	tab     *Table
	p       proto.SyncProtocol
	n       int
	t       int
	budget  bool // true for S^t: stop failing once t processes are failed
	general bool // general omission: failed processes also stop receiving
	name    string
	labels  []string // ActionLabels(n)
	inits   core.InitMemo
}

var _ core.Model = (*Model)(nil)

// NewS1 returns the synchronous model with the S1 layering: every layer
// allows one process to omit an arbitrary prefix-set of its messages, with
// failures recorded and failed processes silenced forever. The number of
// failures is not capped (callers exploring d layers see at most d).
func NewS1(p proto.SyncProtocol, n int) *Model {
	return finishModel(&Model{
		p:    p,
		n:    n,
		t:    n,
		name: fmt.Sprintf("syncmp/S1(n=%d,%s)", n, p.Name()),
	})
}

// finishModel precomputes the action labels and wires the model's
// local-state table and embedded successor cache.
func finishModel(m *Model) *Model {
	m.labels = ActionLabels(m.n)
	m.tab = NewTable(m.p, m.n)
	m.SuccessorCache = core.NewKeyedCache(m)
	return m
}

// NewSt returns the synchronous model with the S^t layering of Section 6:
// S^t(x) = S1(x) while fewer than t processes are failed at x, and the
// single failure-free successor afterwards. Failures are sending
// omissions, the paper's model.
func NewSt(p proto.SyncProtocol, n, t int) *Model {
	return finishModel(&Model{
		p:      p,
		n:      n,
		t:      t,
		budget: true,
		name:   fmt.Sprintf("syncmp/St(n=%d,t=%d,%s)", n, t, p.Name()),
	})
}

// NewStGeneral is NewSt under general-omission failures: from the round
// after its failure a failed process neither sends nor receives (in its
// failure round only the chosen send prefix is blocked, as before). An
// ablation of the paper's sending-omission assumption: the analysis is
// insensitive to the change — the package tests certify and refute the
// same protocols.
func NewStGeneral(p proto.SyncProtocol, n, t int) *Model {
	return finishModel(&Model{
		p:       p,
		n:       n,
		t:       t,
		budget:  true,
		general: true,
		name:    fmt.Sprintf("syncmp/StGen(n=%d,t=%d,%s)", n, t, p.Name()),
	})
}

// Name implements core.Model.
func (m *Model) Name() string { return m.name }

// Protocol returns the protocol the model runs.
func (m *Model) Protocol() proto.SyncProtocol { return m.p }

// N returns the number of processes.
func (m *Model) N() int { return m.n }

// T returns the failure budget (for S^t; S1 reports n).
func (m *Model) T() int { return m.t }

// Inits implements core.Model: Con_0, one initial state per binary input
// assignment, enumerated in binary counting order (process 0 is the least
// significant bit).
func (m *Model) Inits() []core.State {
	return m.inits.Get(func() []core.State {
		out := make([]core.State, 0, 1<<uint(m.n))
		for a := 0; a < 1<<uint(m.n); a++ {
			out = append(out, m.Initial(binaryInputs(m.n, a)))
		}
		return out
	})
}

// Initial builds the initial state for an explicit input assignment.
func (m *Model) Initial(inputs []int) *State {
	locals := make([]string, m.n)
	for i := range locals {
		locals[i] = m.p.Init(m.n, i, inputs[i])
	}
	return m.tab.NewState(0, locals, 0, true, inputs)
}

// AppendCacheKey implements core.KeyedSuccessor through the model's table.
func (m *Model) AppendCacheKey(dst []byte, x core.State) []byte {
	return m.tab.AppendCacheKey(dst, x)
}

// Labels implements core.KeyedSuccessor: ActionLabels(n).
func (m *Model) Labels() []string { return m.labels }

// SuccessorsKeyed implements core.KeyedSuccessor; the embedded cache
// serves Successors. Actions are labeled "noop" for the failure-free round
// and "(j,[k])" for process j omitting to the first k processes (k >= 1).
// Processes already failed generate no new actions: they are silenced
// regardless, so their actions would duplicate "noop". All actions share
// one RoundMemo.
func (m *Model) SuccessorsKeyed(x core.State, p core.Prober) {
	s, ok := x.(*State)
	if !ok {
		return
	}
	r := m.tab.Memo(s, p, true, true, m.general)
	r.Omit(0, 0, 0)
	if !m.budget || s.FailedCount() < m.t {
		for j := 0; j < m.n; j++ {
			if s.FailedAt(j) {
				continue
			}
			for k := 1; k <= m.n; k++ {
				r.Omit(PrefixLabel(m.n, j, k), j, OmitMask(k))
			}
		}
	}
	r.Done()
}

// binaryInputs decodes assignment index a into a binary input vector.
func binaryInputs(n, a int) []int {
	in := make([]int, n)
	for i := 0; i < n; i++ {
		in[i] = (a >> uint(i)) & 1
	}
	return in
}
