package asyncmp

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/proto"
)

// layering is what the two layerings share: the protocol, the model's id
// table, the initial states, and a key-first successor function that
// applies a precomputed action table through one phaseMemo per source
// state. Successor enumeration is memoized in an embedded per-model cache
// shared by every analysis pass over the same model value.
type layering struct {
	*core.SuccessorCache
	tab     *table
	p       proto.MPProtocol
	n       int
	name    string
	inits   core.InitMemo
	actions func() []action
}

// init sets up a layering in place. The action table is built on first
// use: S^per's has O(n·n!) actions, which a model that is only named or
// asked for its initial states should not pay for.
func (l *layering) init(p proto.MPProtocol, n int, name string, actions func() []action) {
	l.p, l.n, l.name, l.actions = p, n, name, sync.OnceValue(actions)
	l.tab = newTable(p, n)
	l.SuccessorCache = core.NewKeyedCache(l)
}

// Labels implements core.KeyedSuccessor: the labels of the action table,
// in order, so an action's label id is its index.
func (l *layering) Labels() []string {
	actions := l.actions()
	labels := make([]string, len(actions))
	for i := range actions {
		labels[i] = actions[i].label
	}
	return labels
}

// Name implements core.Model.
func (l *layering) Name() string { return l.name }

// Protocol returns the protocol the model runs.
func (l *layering) Protocol() proto.MPProtocol { return l.p }

// N returns the number of processes.
func (l *layering) N() int { return l.n }

// Inits implements core.Model: Con_0 in binary counting order, all channels
// empty.
func (l *layering) Inits() []core.State {
	return l.inits.Get(func() []core.State {
		out := make([]core.State, 0, 1<<uint(l.n))
		for a := 0; a < 1<<uint(l.n); a++ {
			inputs := make([]int, l.n)
			for i := 0; i < l.n; i++ {
				inputs[i] = (a >> uint(i)) & 1
			}
			out = append(out, l.Initial(inputs))
		}
		return out
	})
}

// Initial builds the initial state for an explicit input assignment.
func (l *layering) Initial(inputs []int) *State { return l.tab.initial(inputs) }

// AppendCacheKey implements core.KeyedSuccessor through the model's table.
func (l *layering) AppendCacheKey(dst []byte, x core.State) []byte {
	return l.tab.AppendCacheKey(dst, x)
}

// SuccessorsKeyed implements core.KeyedSuccessor: it applies the model's
// action table to x through one phase memo; the embedded cache serves
// Successors.
func (l *layering) SuccessorsKeyed(x core.State, p core.Prober) {
	s, ok := x.(*State)
	if !ok {
		return
	}
	actions := l.actions()
	r := l.tab.memo(s, p)
	for i := range actions {
		id, st := r.next(&actions[i])
		p.Emit(uint32(i), id, st)
	}
	r.done()
}

// apply is the one-action memo behind Sequential, WithPair, Apply and
// ApplyAbsent: the phase memo run against the zero core.Prober, without a
// cache.
func (l *layering) apply(x *State, a action) *State {
	r := l.tab.memo(x, core.Prober{})
	_, st := r.next(&a)
	r.done()
	return st.(*State)
}

// Model is the asynchronous message-passing model with the permutation
// layering S^per. It implements core.Model.
type Model struct {
	layering
}

var _ core.Model = (*Model)(nil)

// New returns the model for protocol p on n processes.
func New(p proto.MPProtocol, n int) *Model {
	m := &Model{}
	m.init(p, n, fmt.Sprintf("asyncmp/Sper(n=%d,%s)", n, p.Name()), func() []action { return perActions(n) })
	return m
}

// Sequential applies the local phases of the given processes in order (an
// action of the first or second type). The slice may list fewer than n
// processes, each at most once.
func (m *Model) Sequential(x *State, order []int) *State {
	return m.apply(x, sequential(m.n, order))
}

// WithPair applies the action [order[0..k-1], {order[k],order[k+1]},
// order[k+2..]]: sequential phases with the processes at positions k and
// k+1 run as a concurrent block — both send from their pre-block states,
// then both receive everything outstanding (including each other's fresh
// message).
func (m *Model) WithPair(x *State, order []int, k int) *State {
	return m.apply(x, withPair(m.n, order, k))
}

// perActions is the S^per action table: one action per full permutation
// ("[0,1,2]"), per drop-one sequence ("[0,2]") and per concurrent-pair
// action ("[0,{1,2}]"), in that order. Drop-one sequences drop the last
// process of a permutation, so every ordered (n-1)-sequence arises exactly
// once; pairs are emitted once, with the block in ascending order.
func perActions(n int) []action {
	perms := permutations(n)
	out := make([]action, 0, 2*len(perms)+(n-1)*len(perms)/2)
	for _, p := range perms {
		a := sequential(n, p)
		a.label = permLabel(p, -1)
		out = append(out, a)
	}
	for _, p := range perms {
		a := sequential(n, p[:n-1])
		a.label = permLabel(p[:n-1], -1)
		out = append(out, a)
	}
	for _, p := range perms {
		for k := 0; k+1 < n; k++ {
			if p[k] > p[k+1] {
				continue // emit each unordered block once
			}
			a := withPair(n, p, k)
			a.label = permLabel(p, k)
			out = append(out, a)
		}
	}
	return out
}

// permLabel formats a scheduling action; pair >= 0 marks the concurrent
// block starting at that position, -1 means none.
func permLabel(order []int, pair int) string {
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
		// Next lexicographic permutation.
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
