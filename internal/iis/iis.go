// Package iis implements the iterated immediate snapshot model (Borowsky &
// Gafni), the wait-free model the paper's permutation layering is inspired
// by and one of the extension models Corollary 7.3 mentions.
//
// In round r all processes access a fresh one-shot immediate-snapshot
// memory M_r. The environment's action is an ordered partition
// (B_1,...,B_m) of the processes into non-empty blocks: the blocks execute
// in order, and within a block all members first write (their protocol's
// WriteValue) and then all members snapshot the memory — so a process sees
// the writes of its own block and of all earlier blocks, and the one-round
// views form the standard chromatic subdivision of the simplex.
//
// Because each round's memory is never read again, the global state needs
// no environment component beyond the round number: the locals carry
// everything. Processes reuse the shared-memory protocol interface
// (proto.SMProtocol); Observe receives the visible snapshot with ""
// marking cells the process did not see.
package iis

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/proto"
)

// State is a global state of the IIS model. Immutable after construction.
type State struct {
	n       int
	round   int
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

// NewState assembles an immutable IIS state.
func NewState(p proto.Decider, round int, locals []string, inputs []int) *State {
	n := len(locals)
	s := &State{
		n:       n,
		round:   round,
		locals:  append([]string(nil), locals...),
		decided: make([]int, n),
		inputs:  append([]int(nil), inputs...),
		envKey:  proto.Join("r" + strconv.Itoa(round)),
	}
	for i, l := range locals {
		if v, ok := p.Decide(l); ok {
			s.decided[i] = v
		} else {
			s.decided[i] = core.Undecided
		}
	}
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

// FailedAt implements core.State: IIS is wait-free; nobody is ever failed
// at a state.
func (s *State) FailedAt(int) bool { return false }

// InputOf implements core.Input.
func (s *State) InputOf(i int) int { return s.inputs[i] }

// Round returns the number of completed IIS rounds.
func (s *State) Round() int { return s.round }

// Model is the IIS model; every layer is one one-shot immediate-snapshot
// round, one successor per ordered partition. It implements core.Model.
// Successor enumeration is memoized in an embedded per-model cache shared
// by every analysis pass over the same model value.
type Model struct {
	*core.SuccessorCache
	p          proto.SMProtocol
	n          int
	name       string
	partitions [][][]int
	inits      core.InitMemo
}

var _ core.Model = (*Model)(nil)

// New returns the IIS model for protocol p on n processes.
func New(p proto.SMProtocol, n int) *Model {
	m := &Model{
		p:          p,
		n:          n,
		name:       fmt.Sprintf("iis(n=%d,%s)", n, p.Name()),
		partitions: OrderedPartitions(n),
	}
	m.SuccessorCache = core.NewSuccessorCache(core.SuccessorFunc(m.successors))
	return m
}

// Name implements core.Model.
func (m *Model) Name() string { return m.name }

// Protocol returns the protocol the model runs.
func (m *Model) Protocol() proto.SMProtocol { return m.p }

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
func (m *Model) Initial(inputs []int) *State {
	locals := make([]string, m.n)
	for i := range locals {
		locals[i] = m.p.Init(m.n, i, inputs[i])
	}
	return NewState(m.p, 0, locals, inputs)
}

// Apply executes one IIS round under the ordered partition.
func (m *Model) Apply(x *State, partition [][]int) *State {
	mem := make([]string, m.n) // this round's fresh memory
	locals := append([]string(nil), x.locals...)
	written := make([]bool, m.n)
	for _, block := range partition {
		// All block members write...
		for _, i := range block {
			if v := m.p.WriteValue(x.locals[i]); v != "" {
				mem[i] = v
			}
			written[i] = true
		}
		// ...then all block members snapshot what is visible so far.
		snapshot := make([]string, m.n)
		for j := 0; j < m.n; j++ {
			if written[j] {
				snapshot[j] = mem[j]
			}
		}
		for _, i := range block {
			locals[i] = m.p.Observe(x.locals[i], snapshot)
		}
	}
	return NewState(m.p, x.round+1, locals, x.inputs)
}

// successors enumerates one successor per ordered partition; the embedded
// cache serves Successors.
func (m *Model) successors(x core.State) []core.Succ {
	s, ok := x.(*State)
	if !ok {
		return nil
	}
	out := make([]core.Succ, 0, len(m.partitions))
	for _, part := range m.partitions {
		out = append(out, core.Succ{
			Action: PartitionLabel(part),
			State:  m.Apply(s, part),
		})
	}
	return out
}

// PartitionLabel formats an ordered partition, e.g. "[{0,1},{2}]".
func PartitionLabel(partition [][]int) string {
	var b strings.Builder
	b.WriteByte('[')
	for bi, block := range partition {
		if bi > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('{')
		for i, p := range block {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(p))
		}
		b.WriteByte('}')
	}
	b.WriteByte(']')
	return b.String()
}

// OrderedPartitions enumerates all ordered partitions of {0..n-1} into
// non-empty blocks (Fubini enumeration), deterministically: blocks are
// internally sorted ascending, and partitions are emitted in recursive
// subset order.
func OrderedPartitions(n int) [][][]int {
	full := (1 << uint(n)) - 1
	var out [][][]int
	var rec func(remaining int, acc [][]int)
	rec = func(remaining int, acc [][]int) {
		if remaining == 0 {
			cp := make([][]int, len(acc))
			copy(cp, acc)
			out = append(out, cp)
			return
		}
		// Enumerate non-empty submasks of remaining as the next block.
		for sub := remaining; sub > 0; sub = (sub - 1) & remaining {
			block := maskToSlice(sub, n)
			rec(remaining&^sub, append(acc, block))
		}
	}
	rec(full, nil)
	return out
}

func maskToSlice(mask, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}
