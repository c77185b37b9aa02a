package asyncmp

import (
	"repro/internal/core"
	"repro/internal/proto"
)

// State is a global state of the asynchronous message-passing model: the
// environment (the cumulative channel histories) and each process's local
// state (protocol state and per-channel consumption counters). A state and
// the records it points to are immutable, which is what lets successors
// share them.
type State struct {
	env    *env
	procs  []*proc
	inputs []int
	key    string
}

// env is the environment's local state. hist[from*n+to] is every message
// ever sent from one process to another, oldest first; each history's
// capacity equals its length, so extending one always copies and siblings
// never alias. key is Join(Join(hist[0]...), ..., Join(hist[n*n-1]...)).
// A record its model's table filed carries the table, its id there and
// its channels' history ids; one built from scratch (newState) has a nil
// tab.
type env struct {
	hist  [][]string
	key   string
	tab   *table
	id    uint32
	hists []uint32
}

// proc is one process's local state: its protocol state, how far it has
// consumed each incoming channel (consumed[from] is the delivered prefix
// of hist[from*n+i]), its local-state key Join(local, JoinInts(consumed...))
// and its decision (core.Undecided if none). A record its model's table
// filed carries the table, its id there and its protocol state's local
// id; one built from scratch (newState) has a nil tab.
type proc struct {
	local    string
	consumed []int
	key      string
	decided  int
	tab      *table
	id, lid  uint32
}

var (
	_ core.State = (*State)(nil)
	_ core.Input = (*State)(nil)
)

// newState assembles a state from scratch out of owned (not aliased)
// slices: hist[from][to] is the from->to history, consumed[to][from] the
// prefix of it delivered to to.
func newState(p proto.Decider, hist [][][]string, consumed [][]int, plocal []string, inputs []int) *State {
	n := len(plocal)
	e := &env{hist: make([][]string, n*n)}
	encs := make([]string, n*n)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			h := hist[from][to]
			e.hist[from*n+to] = h[:len(h):len(h)]
			encs[from*n+to] = proto.Join(h...)
		}
	}
	e.key = proto.Join(encs...)
	procs := make([]*proc, n)
	for i := range procs {
		procs[i] = newProc(p, plocal[i], consumed[i])
	}
	s, _ := assemble(e, procs, inputs, nil)
	return s
}

// newProc builds a process record, taking ownership of consumed.
func newProc(p proto.Decider, local string, consumed []int) *proc {
	r := &proc{local: local, consumed: consumed, key: procKey(local, consumed), decided: core.Undecided}
	if v, ok := p.Decide(local); ok {
		r.decided = v
	}
	return r
}

// procKey is a process's local-state key.
func procKey(local string, consumed []int) string {
	return proto.Join(local, proto.JoinInts(consumed...))
}

// assemble builds the state with environment e and process records procs,
// appending its key Join(e.key, procs[0].key, ...) into buf, which it
// returns for reuse.
func assemble(e *env, procs []*proc, inputs []int, buf []byte) (*State, []byte) {
	buf = proto.AppendJoin(buf[:0], e.key)
	for _, r := range procs {
		buf = proto.AppendJoin(buf, r.key)
	}
	return &State{env: e, procs: procs, inputs: inputs, key: string(buf)}, buf
}

// N implements core.State.
func (s *State) N() int { return len(s.procs) }

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
func (s *State) Local(i int) string { return s.procs[i].key }

// Decided implements core.State.
func (s *State) Decided(i int) (int, bool) {
	if d := s.procs[i].decided; d != core.Undecided {
		return d, true
	}
	return core.Undecided, false
}

// FailedAt implements core.State: the model displays no finite failure.
func (s *State) FailedAt(int) bool { return false }

// InputOf implements core.Input.
func (s *State) InputOf(i int) int { return s.inputs[i] }

// ProtocolState returns process i's protocol state.
func (s *State) ProtocolState(i int) string { return s.procs[i].local }

// Outstanding returns the messages outstanding for process i, per sender.
func (s *State) Outstanding(i int) [][]string {
	n := len(s.procs)
	out := make([][]string, n)
	for j := range out {
		out[j] = append([]string(nil), s.env.hist[j*n+i][s.procs[i].consumed[j]:]...)
	}
	return out
}
