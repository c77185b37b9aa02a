package syncmp

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/proto"
)

// State is a global state of a round-based synchronous message-passing
// system. It is immutable after construction: all derived fields (key,
// decisions) are precomputed.
type State struct {
	n       int
	round   int
	locals  []string
	failed  uint64 // bitmask of processes recorded as failed by the environment
	trackEn bool   // whether the failed set is part of the environment state
	decided []int  // per-process decision (core.Undecided if none)
	inputs  []int  // initial inputs of the run (reporting metadata; not in Key)
	key     string
	envKey  string
	// tab is the local-state table whose ids ids holds, one per process;
	// nil for a state built by NewState. The ids never reach Key.
	tab *Table
	ids []uint32
}

var (
	_ core.State = (*State)(nil)
	_ core.Input = (*State)(nil)
)

// NewState assembles an immutable state. When trackEnv is true (the
// t-resilient model of Section 6) the failed bitmask is part of the
// environment state; when false (the mobile model M^mf) the environment
// consists of the round number only and failed must be 0.
func NewState(p proto.Decider, round int, locals []string, failed uint64, trackEnv bool, inputs []int) *State {
	decided := make([]int, len(locals))
	for i, l := range locals {
		decided[i] = core.Undecided
		if v, ok := p.Decide(l); ok {
			decided[i] = v
		}
	}
	return newState(round, append([]string(nil), locals...), decided, failed, trackEnv, inputs, nil, nil)
}

// newState assembles a state from its own locals and decisions, carrying
// the local ids ids of table tab (nil for none).
func newState(round int, locals []string, decided []int, failed uint64, trackEnv bool, inputs []int, tab *Table, ids []uint32) *State {
	n := len(locals)
	s := &State{
		n:       n,
		round:   round,
		locals:  locals,
		failed:  failed,
		trackEn: trackEnv,
		decided: decided,
		inputs:  append([]int(nil), inputs...),
		tab:     tab,
		ids:     ids,
	}
	s.envKey = envKeyOf(round, failed, trackEnv)
	fields := make([]string, 0, n+1)
	fields = append(fields, s.envKey)
	fields = append(fields, s.locals...)
	s.key = proto.Join(fields...)
	return s
}

// envKeyOf encodes a state's environment: the round number, plus the
// failed set when the environment tracks it.
func envKeyOf(round int, failed uint64, trackEnv bool) string {
	if trackEnv {
		return proto.Join("r"+strconv.Itoa(round), "f"+strconv.FormatUint(failed, 16))
	}
	return proto.Join("r" + strconv.Itoa(round))
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

// FailedAt implements core.State. In the t-resilient model a process
// recorded as failed is silenced forever and is therefore faulty in every
// run through this state. In the mobile model no process is ever failed at a
// state (the model displays no finite failure).
func (s *State) FailedAt(i int) bool {
	if !s.trackEn {
		return false
	}
	return s.failed&(1<<uint(i)) != 0
}

// InputOf implements core.Input.
func (s *State) InputOf(i int) int { return s.inputs[i] }

// Round returns the round number (the number of layers applied so far).
func (s *State) Round() int { return s.round }

// Failed returns the bitmask of processes recorded as failed.
func (s *State) Failed() uint64 { return s.failed }

// FailedCount returns the number of processes recorded as failed.
func (s *State) FailedCount() int {
	c := 0
	for f := s.failed; f != 0; f &= f - 1 {
		c++
	}
	return c
}
