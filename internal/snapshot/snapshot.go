// Package snapshot implements the atomic-snapshot shared-memory model —
// the remaining extension model named by Corollary 7.3 — under the
// permutation layering. A local phase of process i is: update the i-th
// segment of the snapshot object (with the value computed from the state at
// the start of the phase), then take one atomic scan of all segments.
//
// Layer actions mirror the message-passing permutation layering S^per
// exactly: full permutations [p1..pn] (phases executed sequentially),
// drop-one sequences [p1..p_{n-1}], and concurrent pairs
// [..,{pk,pk+1},..] in which both block members update before either
// scans — the immediate-snapshot block, under which each sees the other.
// Together with internal/asyncmp this demonstrates the paper's point that
// the same layering analysis is model-independent: the package tests check
// the identical transposition-similarity chain and certify the identical
// refutation.
//
// The environment's local state is the snapshot object's segments. Unlike
// the cumulative message histories of asyncmp, segments are overwritten in
// place, so the state stays small.
package snapshot

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/proto"
)

// State is a global state of the snapshot model. Immutable after
// construction.
type State struct {
	n       int
	segs    []string // the snapshot object's segments (environment)
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

// NewState assembles an immutable snapshot-model state.
func NewState(p proto.Decider, segs, locals []string, inputs []int) *State {
	n := len(locals)
	s := &State{
		n:       n,
		segs:    append([]string(nil), segs...),
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
	s.envKey = proto.Join(s.segs...)
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

// EnvKey implements core.State.
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

// FailedAt implements core.State: the model displays no finite failure.
func (s *State) FailedAt(int) bool { return false }

// InputOf implements core.Input.
func (s *State) InputOf(i int) int { return s.inputs[i] }

// Segments returns a copy of the snapshot object's segments.
func (s *State) Segments() []string { return append([]string(nil), s.segs...) }

// Model is the snapshot model with the permutation layering. It implements
// core.Model and reuses the shared-memory protocol interface. Successor
// enumeration is memoized in an embedded per-model cache shared by every
// analysis pass over the same model value.
type Model struct {
	*core.SuccessorCache
	p     proto.SMProtocol
	n     int
	name  string
	inits core.InitMemo
}

var _ core.Model = (*Model)(nil)

// New returns the snapshot model for protocol p on n processes.
func New(p proto.SMProtocol, n int) *Model {
	m := &Model{p: p, n: n, name: fmt.Sprintf("snapshot/Sper(n=%d,%s)", n, p.Name())}
	m.SuccessorCache = core.NewSuccessorCache(core.SuccessorFunc(m.successors))
	return m
}

// Name implements core.Model.
func (m *Model) Name() string { return m.name }

// Protocol returns the protocol the model runs.
func (m *Model) Protocol() proto.SMProtocol { return m.p }

// N returns the number of processes.
func (m *Model) N() int { return m.n }

// Inits implements core.Model: Con_0 in binary counting order, all
// segments empty.
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

// Sequential applies whole update+scan phases in the given order.
func (m *Model) Sequential(x *State, order []int) *State {
	segs := append([]string(nil), x.segs...)
	locals := append([]string(nil), x.locals...)
	for _, i := range order {
		if v := m.p.WriteValue(x.locals[i]); v != "" {
			segs[i] = v
		}
		scan := append([]string(nil), segs...)
		locals[i] = m.p.Observe(x.locals[i], scan)
	}
	return NewState(m.p, segs, locals, x.inputs)
}

// WithPair applies the action with the processes at positions k and k+1
// run as an immediate-snapshot block: both update, then both scan.
func (m *Model) WithPair(x *State, order []int, k int) *State {
	segs := append([]string(nil), x.segs...)
	locals := append([]string(nil), x.locals...)
	for idx := 0; idx < len(order); idx++ {
		if idx == k {
			a, b := order[k], order[k+1]
			if v := m.p.WriteValue(x.locals[a]); v != "" {
				segs[a] = v
			}
			if v := m.p.WriteValue(x.locals[b]); v != "" {
				segs[b] = v
			}
			scan := append([]string(nil), segs...)
			locals[a] = m.p.Observe(x.locals[a], scan)
			locals[b] = m.p.Observe(x.locals[b], scan)
			idx++
			continue
		}
		i := order[idx]
		if v := m.p.WriteValue(x.locals[i]); v != "" {
			segs[i] = v
		}
		scan := append([]string(nil), segs...)
		locals[i] = m.p.Observe(x.locals[i], scan)
	}
	return NewState(m.p, segs, locals, x.inputs)
}

// successors enumerates asyncmp's action set; the embedded cache serves
// Successors.
func (m *Model) successors(x core.State) []core.Succ {
	s, ok := x.(*State)
	if !ok {
		return nil
	}
	var out []core.Succ
	perms := permutations(m.n)
	for _, p := range perms {
		out = append(out, core.Succ{Action: label(p, -1), State: m.Sequential(s, p)})
	}
	for _, p := range perms {
		out = append(out, core.Succ{Action: label(p[:m.n-1], -1), State: m.Sequential(s, p[:m.n-1])})
	}
	for _, p := range perms {
		for k := 0; k+1 < m.n; k++ {
			if p[k] > p[k+1] {
				continue
			}
			out = append(out, core.Succ{Action: label(p, k), State: m.WithPair(s, p, k)})
		}
	}
	return out
}

func label(order []int, pair int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < len(order); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		if i == pair {
			b.WriteByte('{')
			b.WriteString(strconv.Itoa(order[i]))
			b.WriteByte(',')
			b.WriteString(strconv.Itoa(order[i+1]))
			b.WriteByte('}')
			i++
			continue
		}
		b.WriteString(strconv.Itoa(order[i]))
	}
	b.WriteByte(']')
	return b.String()
}

// permutations returns all permutations of 0..n-1 in lexicographic order.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	for {
		out = append(out, append([]int(nil), cur...))
		i := n - 2
		for i >= 0 && cur[i] >= cur[i+1] {
			i--
		}
		if i < 0 {
			return out
		}
		j := n - 1
		for cur[j] <= cur[i] {
			j--
		}
		cur[i], cur[j] = cur[j], cur[i]
		for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
			cur[l], cur[r] = cur[r], cur[l]
		}
	}
}
