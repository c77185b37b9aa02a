package shmem

import (
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/proto"
)

// State is a global state of a shared-memory model: its environment (the
// memory, or an iterated model's round) and each process's local state.
// States and environment records are immutable, so successors share them.
type State struct {
	env     *env
	locals  []string
	decided []int
	inputs  []int
	key     string
	tab     *table   // the table that built it, nil for NewState's
	ids     []uint32 // its local ids in tab
}

// env is a state's environment: the memory (nil for an iterated model)
// or round, and its EnvKey. A table's record carries the table, its id and
// the memory's value ids.
type env struct {
	mem   []string
	round int
	key   string
	tab   *table
	id    uint32
	vals  []uint32
}

var (
	_ core.State = (*State)(nil)
	_ core.Input = (*State)(nil)
)

// NewState assembles a state from strings: the memory mem (nil for an
// iterated model after round rounds), the local states and the inputs.
func NewState(p proto.Decider, round int, mem, locals []string, inputs []int) *State {
	decided := make([]int, len(locals))
	for i, l := range locals {
		decided[i] = core.Undecided
		if v, ok := p.Decide(l); ok {
			decided[i] = v
		}
	}
	e := &env{mem: slices.Clone(mem), round: round, key: envKey(round, mem)}
	s, _ := newState(e, slices.Clone(locals), decided, slices.Clone(inputs), nil, nil, nil)
	return s
}

// newState assembles a state, taking ownership of its slices; buf is
// scratch for the key, returned for reuse.
func newState(e *env, locals []string, decided, inputs []int, tab *table, ids []uint32, buf []byte) (*State, []byte) {
	buf = proto.AppendJoin(proto.AppendJoin(buf[:0], e.key), locals...)
	return &State{env: e, locals: locals, decided: decided, inputs: inputs, key: string(buf), tab: tab, ids: ids}, buf
}

// envKey encodes the memory, or the round when mem is nil.
func envKey(round int, mem []string) string {
	if mem == nil {
		return proto.Join("r" + strconv.Itoa(round))
	}
	return proto.Join(mem...)
}

// N implements core.State.
func (s *State) N() int { return len(s.locals) }

// Key implements core.State.
func (s *State) Key() string { return s.key }

// AppendKey implements core.KeyAppender: the key is precomputed at
// construction, so the fast path is a copy of the cached bytes.
//
//lint:hotpath
func (s *State) AppendKey(dst []byte) []byte { return append(dst, s.key...) }

// EnvKey implements core.State.
func (s *State) EnvKey() string { return s.env.key }

// Local implements core.State.
func (s *State) Local(i int) string { return s.locals[i] }

// Decided implements core.State.
func (s *State) Decided(i int) (int, bool) {
	if s.decided[i] == core.Undecided {
		return core.Undecided, false
	}
	return s.decided[i], true
}

// FailedAt implements core.State: no finite failure.
func (s *State) FailedAt(int) bool { return false }

// InputOf implements core.Input.
func (s *State) InputOf(i int) int { return s.inputs[i] }
