package asyncmp

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/protocols"
)

// TestMemoMatchesApplyOps: every successor the phase memo enumerates equals
// the op-level reference executing the interleaving its label names —
// label, Key, EnvKey, Local, Decided, ProtocolState and Outstanding — for
// both layerings under MPFlood, MPFullInfo and MPCoordinator (whose empty
// messages exercise the live-sender mask), n=2–4, to depth 3 (the larger
// frontiers sampled). Enumerating a state leaves the state itself
// unchanged, and a successor's histories still encode to its environment
// key after all its siblings are built, so no sibling aliases another's
// history.
func TestMemoMatchesApplyOps(t *testing.T) {
	const depth, frontier = 3, 24
	for _, p := range []proto.MPProtocol{protocols.MPFlood{Phases: 2}, protocols.MPFullInfo{}, protocols.MPCoordinator{Phases: 2}} {
		for n := 2; n <= 4; n++ {
			for _, l := range []*layering{&New(p, n).layering, &NewSynchronic(p, n).layering} {
				var xs []*State
				for _, x := range l.Inits() {
					xs = append(xs, x.(*State))
				}
				for d := 0; d < depth; d++ {
					var next []*State
					for _, x := range sample(xs, frontier) {
						next = append(next, checkSuccessors(t, l, x)...)
					}
					xs = next
				}
			}
		}
	}
}

// checkSuccessors enumerates x's successors through the memo, checks them
// and x against the reference, and returns them.
func checkSuccessors(t *testing.T, l *layering, x *State) []*State {
	t.Helper()
	before := snapshot(x)
	succs := rawSuccessors(l, x)
	if got := snapshot(x); !reflect.DeepEqual(got, before) {
		t.Fatalf("%s: enumerating %q changed it", l.name, x.Key())
	}
	if len(succs) != len(l.actions()) {
		t.Fatalf("%s: %d successors, want %d", l.name, len(succs), len(l.actions()))
	}
	out := make([]*State, len(succs))
	for i, s := range succs {
		got := s.State.(*State)
		if want := l.actions()[i].label; s.Action != want {
			t.Fatalf("%s: successor %d labeled %s, want %s", l.name, i, s.Action, want)
		}
		want, err := l.ApplyOps(x, opsOf(t, l.n, s.Action))
		if err != nil {
			t.Fatalf("%s %s: %v", l.name, s.Action, err)
		}
		sameState(t, l.name+" "+s.Action, got, want)
		if enc := encodeEnv(got.env.hist); enc != got.EnvKey() {
			t.Fatalf("%s %s: histories encode to %q, env key %q", l.name, s.Action, enc, got.EnvKey())
		}
		out[i] = got
	}
	return out
}

// rawSuccessors enumerates x's successors against a Prober without a
// cache, which builds every one.
func rawSuccessors(l *layering, x *State) []core.Succ {
	return l.Uncached().Successors(x)
}

// sameState compares every observable of two states.
func sameState(t *testing.T, what string, got, want *State) {
	t.Helper()
	if got.Key() != want.Key() || got.EnvKey() != want.EnvKey() || got.N() != want.N() {
		t.Fatalf("%s: key/env key differ:\n got %q\nwant %q", what, got.Key(), want.Key())
	}
	for i := 0; i < got.N(); i++ {
		gv, gok := got.Decided(i)
		wv, wok := want.Decided(i)
		if got.Local(i) != want.Local(i) || got.ProtocolState(i) != want.ProtocolState(i) || gv != wv || gok != wok {
			t.Fatalf("%s: process %d differs", what, i)
		}
		if g, w := got.Outstanding(i), want.Outstanding(i); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: outstanding for %d = %q, want %q", what, i, g, w)
		}
	}
}

// stateSnapshot is a deep copy of everything a state holds.
type stateSnapshot struct {
	Key, EnvKey string
	Hist        [][]string
	Locals      []string
	Consumed    [][]int
	Decided     []int
}

func snapshot(x *State) stateSnapshot {
	s := stateSnapshot{Key: x.key, EnvKey: x.env.key}
	for _, h := range x.env.hist {
		s.Hist = append(s.Hist, slices.Clone(h))
	}
	for _, r := range x.procs {
		s.Locals = append(s.Locals, r.local)
		s.Consumed = append(s.Consumed, slices.Clone(r.consumed))
		s.Decided = append(s.Decided, r.decided)
	}
	return s
}

// encodeEnv re-encodes histories from scratch.
func encodeEnv(hist [][]string) string {
	encs := make([]string, len(hist))
	for c, h := range hist {
		encs[c] = proto.Join(h...)
	}
	return proto.Join(encs...)
}

// sample returns about limit states spread evenly over xs.
func sample(xs []*State, limit int) []*State {
	if len(xs) <= limit {
		return xs
	}
	out := make([]*State, limit)
	for i := range out {
		out[i] = xs[i*len(xs)/limit]
	}
	return out
}

// opsOf parses an action label into the interleaving it names.
func opsOf(t *testing.T, n int, label string) []Op {
	t.Helper()
	if label[0] == '(' {
		j, k := roundOf(t, label)
		if k < 0 {
			return AbsentOps(n, j)
		}
		return SynchronicOps(n, j, k)
	}
	order, pair := permOf(t, label)
	if pair >= 0 {
		return PairOps(order, pair)
	}
	return SequentialOps(order)
}

// roundOf parses a synchronic label "(j,k)", or "(j,A)" with k = -1.
func roundOf(t *testing.T, label string) (j, k int) {
	t.Helper()
	js, ks, _ := strings.Cut(label[1:len(label)-1], ",")
	if ks == "A" {
		return atoi(t, js), -1
	}
	return atoi(t, js), atoi(t, ks)
}

// permOf parses a permutation label "[0,{1,2}]" into its process order and
// the position of its concurrent pair, -1 if none.
func permOf(t *testing.T, label string) (order []int, pair int) {
	t.Helper()
	pair = -1
	for _, tok := range strings.Split(label[1:len(label)-1], ",") {
		if strings.HasPrefix(tok, "{") {
			pair, tok = len(order), tok[1:]
		}
		order = append(order, atoi(t, strings.TrimSuffix(tok, "}")))
	}
	return order, pair
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestOneActionMemos: Sequential, WithPair, Apply and ApplyAbsent equal the
// corresponding enumerated successors.
func TestOneActionMemos(t *testing.T) {
	const n = 3
	p := protocols.MPFlood{Phases: 3}
	per, syn := New(p, n), NewSynchronic(p, n)
	x := per.Initial([]int{0, 1, 1})
	y := per.Sequential(x, []int{2, 0})
	for _, s := range rawSuccessors(&per.layering, y) {
		order, pair := permOf(t, s.Action)
		got := per.Sequential(y, order)
		if pair >= 0 {
			got = per.WithPair(y, order, pair)
		}
		sameState(t, s.Action, got, s.State.(*State))
	}
	for _, s := range rawSuccessors(&syn.layering, y) {
		j, k := roundOf(t, s.Action)
		got := syn.ApplyAbsent(y, j)
		if k >= 0 {
			got = syn.Apply(y, j, k)
		}
		sameState(t, s.Action, got, s.State.(*State))
	}
}

// TestSequentialRejectsRepeatedProcess: an action gives each process at
// most one phase, so listing a process twice is a caller bug.
func TestSequentialRejectsRepeatedProcess(t *testing.T) {
	m := New(protocols.MPFlood{Phases: 2}, 3)
	defer func() {
		if recover() == nil {
			t.Error("Sequential accepted a repeated process")
		}
	}()
	m.Sequential(m.Initial([]int{0, 1, 1}), []int{0, 1, 0})
}
