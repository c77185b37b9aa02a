// Package shmem implements M^rw, the asynchronous single-writer/
// multi-reader shared-memory model, together with the paper's synchronic
// layering S^rw (Section 5.1).
//
// The shared registers V_0..V_{n-1} live in the environment's local state.
// A local phase of process i is: at most one write into V_i, followed by a
// maximal sequence of reads covering every register once. The synchronic
// layering organizes local phases into virtual rounds of four stages
//
//	W1, R1, W2, R2
//
// driven by environment actions of two kinds (0-based ids, k in 0..n):
//
//   - (j,A): every process except j ("the proper processes") writes in W1
//     and reads in R1; the slow process j neither writes nor reads.
//   - (j,k): proper processes write in W1 and j writes in W2; proper
//     processes with id < k read in R1 (seeing V_j's pre-round value), while
//     j and the proper processes with id >= k read in R2 (seeing j's fresh
//     write).
//
// Every S^rw-run is fair — all processes except at most one take infinitely
// many local phases — and the model displays no finite failure: FailedAt is
// always false.
package shmem

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/proto"
)

// State is a global state of M^rw: register contents (environment) plus
// per-process local states. Immutable after construction.
type State struct {
	n       int
	regs    []string
	locals  []string
	decided []int
	inputs  []int
	key     string
	envKey  string
}

var (
	_ core.State = (*State)(nil)
	_ core.Input = (*State)(nil)
)

// NewState assembles an immutable shared-memory state.
func NewState(p proto.Decider, regs, locals []string, inputs []int) *State {
	n := len(locals)
	s := &State{
		n:       n,
		regs:    append([]string(nil), regs...),
		locals:  append([]string(nil), locals...),
		decided: make([]int, n),
		inputs:  append([]int(nil), inputs...),
	}
	for i, l := range locals {
		if v, ok := p.Decide(l); ok {
			s.decided[i] = v
		} else {
			s.decided[i] = core.Undecided
		}
	}
	s.envKey = proto.Join(s.regs...)
	fields := make([]string, 0, n+1)
	fields = append(fields, s.envKey)
	fields = append(fields, s.locals...)
	s.key = proto.Join(fields...)
	return s
}

// N implements core.State.
func (s *State) N() int { return s.n }

// Key implements core.State.
func (s *State) Key() string { return s.key }

// AppendKey implements core.KeyAppender: the key is precomputed at
// construction, so the fast path is a copy of the cached bytes.
//
//lint:hotpath
func (s *State) AppendKey(dst []byte) []byte { return append(dst, s.key...) }

// EnvKey implements core.State: the registers are the environment.
func (s *State) EnvKey() string { return s.envKey }

// Local implements core.State.
func (s *State) Local(i int) string { return s.locals[i] }

// Decided implements core.State.
func (s *State) Decided(i int) (int, bool) {
	if s.decided[i] == core.Undecided {
		return core.Undecided, false
	}
	return s.decided[i], true
}

// FailedAt implements core.State: M^rw displays no finite failure.
func (s *State) FailedAt(int) bool { return false }

// InputOf implements core.Input.
func (s *State) InputOf(i int) int { return s.inputs[i] }

// Registers returns a copy of the register contents.
func (s *State) Registers() []string { return append([]string(nil), s.regs...) }

// Model is M^rw with the synchronic layering S^rw. It implements
// core.Model. Successor enumeration is memoized in an embedded per-model
// cache shared by every analysis pass over the same model value.
type Model struct {
	*core.SuccessorCache
	p     proto.SMProtocol
	n     int
	name  string
	inits core.InitMemo
}

var _ core.Model = (*Model)(nil)

// New returns M^rw/S^rw for protocol p on n processes.
func New(p proto.SMProtocol, n int) *Model {
	m := &Model{p: p, n: n, name: fmt.Sprintf("shmem/Srw(n=%d,%s)", n, p.Name())}
	m.SuccessorCache = core.NewSuccessorCache(core.SuccessorFunc(m.successors))
	return m
}

// Name implements core.Model.
func (m *Model) Name() string { return m.name }

// Protocol returns the protocol the model runs.
func (m *Model) Protocol() proto.SMProtocol { return m.p }

// N returns the number of processes.
func (m *Model) N() int { return m.n }

// Inits implements core.Model: Con_0 in binary counting order, with all
// registers initially empty.
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
func (m *Model) Initial(inputs []int) *State {
	locals := make([]string, m.n)
	for i := range locals {
		locals[i] = m.p.Init(m.n, i, inputs[i])
	}
	return NewState(m.p, make([]string, m.n), locals, inputs)
}

// successors enumerates S^rw(x) = { x(j,k) } ∪ { x(j,A) }; the embedded
// cache serves Successors. Action labels are "(j,k)" and "(j,A)".
func (m *Model) successors(x core.State) []core.Succ {
	s, ok := x.(*State)
	if !ok {
		return nil
	}
	out := make([]core.Succ, 0, m.n*(m.n+2))
	for j := 0; j < m.n; j++ {
		for k := 0; k <= m.n; k++ {
			out = append(out, core.Succ{
				Action: "(" + strconv.Itoa(j) + "," + strconv.Itoa(k) + ")",
				State:  m.Apply(s, j, k),
			})
		}
		out = append(out, core.Succ{
			Action: "(" + strconv.Itoa(j) + ",A)",
			State:  m.ApplyAbsent(s, j),
		})
	}
	return out
}

// Apply performs the virtual round of action (j,k) on x.
func (m *Model) Apply(x *State, j, k int) *State {
	n := m.n
	// W1: proper processes write.
	regs := append([]string(nil), x.regs...)
	for i := 0; i < n; i++ {
		if i == j {
			continue
		}
		if v := m.p.WriteValue(x.locals[i]); v != "" {
			regs[i] = v
		}
	}
	afterW1 := append([]string(nil), regs...)
	// W2: the slow process j writes.
	if v := m.p.WriteValue(x.locals[j]); v != "" {
		regs[j] = v
	}
	// R1 readers see afterW1; R2 readers see regs (after W2).
	locals := make([]string, n)
	for i := 0; i < n; i++ {
		switch {
		case i == j:
			locals[i] = m.p.Observe(x.locals[i], regs)
		case i < k:
			locals[i] = m.p.Observe(x.locals[i], afterW1)
		default:
			locals[i] = m.p.Observe(x.locals[i], regs)
		}
	}
	return NewState(m.p, regs, locals, x.inputs)
}

// ApplyAbsent performs the virtual round of action (j,A) on x: the proper
// processes write in W1 and read in R1; j neither writes nor reads.
func (m *Model) ApplyAbsent(x *State, j int) *State {
	n := m.n
	regs := append([]string(nil), x.regs...)
	for i := 0; i < n; i++ {
		if i == j {
			continue
		}
		if v := m.p.WriteValue(x.locals[i]); v != "" {
			regs[i] = v
		}
	}
	locals := make([]string, n)
	for i := 0; i < n; i++ {
		if i == j {
			locals[i] = x.locals[i]
			continue
		}
		locals[i] = m.p.Observe(x.locals[i], regs)
	}
	return NewState(m.p, regs, locals, x.inputs)
}
