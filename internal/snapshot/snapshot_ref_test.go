package snapshot_test

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/shmem"
	"repro/internal/snapshot"
)

// The string reference for the snapshot model: update+scan phases executed
// on []string segments, one WriteValue and one Observe call per process, and
// the action list enumerated from its own permutations, as the model ran
// them before it enumerated through ids. The package tests check the
// model's enumeration against it.

// refPhases applies the phases of order to x, the processes at positions
// pair and pair+1 (pair >= 0) as one immediate-snapshot block.
func refPhases(p proto.SMProtocol, x *shmem.State, order []int, pair int) *shmem.State {
	segs, err := proto.Split(x.EnvKey())
	if err != nil {
		panic(err)
	}
	locals := make([]string, x.N())
	inputs := make([]int, x.N())
	for i := range locals {
		locals[i], inputs[i] = x.Local(i), x.InputOf(i)
	}
	for idx := 0; idx < len(order); idx++ {
		block := order[idx : idx+1]
		if idx == pair {
			block = order[idx : idx+2]
			idx++
		}
		for _, i := range block {
			if v := p.WriteValue(x.Local(i)); v != "" {
				segs[i] = v
			}
		}
		for _, i := range block {
			locals[i] = p.Observe(x.Local(i), slices.Clone(segs))
		}
	}
	return shmem.NewState(p, 0, segs, locals, inputs)
}

// refSuccessors is the permutation layering's S(x) in enumeration order:
// full permutations, drop-one sequences, then pairs with the block in
// ascending order.
func refSuccessors(p proto.SMProtocol, x *shmem.State) []core.Succ {
	n := x.N()
	var out []core.Succ
	perms := refPermutations(n)
	for _, o := range perms {
		out = append(out, core.Succ{Action: refLabel(o, -1), State: refPhases(p, x, o, -1)})
	}
	for _, o := range perms {
		out = append(out, core.Succ{Action: refLabel(o[:n-1], -1), State: refPhases(p, x, o[:n-1], -1)})
	}
	for _, o := range perms {
		for k := 0; k+1 < n; k++ {
			if o[k] < o[k+1] {
				out = append(out, core.Succ{Action: refLabel(o, k), State: refPhases(p, x, o, k)})
			}
		}
	}
	return out
}

func refLabel(order []int, pair int) string {
	parts := make([]string, 0, len(order))
	for i := 0; i < len(order); i++ {
		if i == pair {
			parts = append(parts, "{"+strconv.Itoa(order[i])+","+strconv.Itoa(order[i+1])+"}")
			i++
			continue
		}
		parts = append(parts, strconv.Itoa(order[i]))
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// refPermutations lists the permutations of 0..n-1 in lexicographic order.
func refPermutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, rest := range refPermutations(n - 1) {
		for pos := 0; pos <= len(rest); pos++ {
			out = append(out, slices.Insert(slices.Clone(rest), pos, n-1))
		}
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// TestMatchesStringReference: on every state reachable to depth 2 at n=2
// and n=3, under two SMVote bounds and full information, every action
// gives the reference's label and key, in enumeration order, through the
// cache and without it; and so does a reachable state rebuilt from its
// strings.
func TestMatchesStringReference(t *testing.T) {
	for _, p := range []proto.SMProtocol{protocols.SMVote{Phases: 2}, protocols.SMVote{Phases: 3}, protocols.SMFullInfo{}} {
		for _, n := range []int{2, 3} {
			m := snapshot.New(p, n)
			g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range g.States {
				want := refSuccessors(p, x.(*shmem.State))
				sameSuccs(t, m.Name(), m.Successors(x), want)
				sameSuccs(t, m.Name()+" uncached", m.Uncached().Successors(x), want)
			}
			x := g.States[g.Len()-1].(*shmem.State)
			y := refPhases(p, x, nil, -1) // x rebuilt from its strings
			if c := core.CacheOf(m); c.ID(y) != c.ID(x) {
				t.Fatalf("%s: a state rebuilt from strings gets id %d, its original %d", m.Name(), c.ID(y), c.ID(x))
			}
			sameSuccs(t, m.Name()+" from strings", m.Successors(y), refSuccessors(p, x))
		}
	}
}

// sameSuccs fails t unless got and want list the same labels and keys.
func sameSuccs(t *testing.T, what string, got, want []core.Succ) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d successors, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Action != want[i].Action || got[i].State.Key() != want[i].State.Key() {
			t.Fatalf("%s: successor %d is %s %q, want %s %q", what, i, got[i].Action, got[i].State.Key(), want[i].Action, want[i].State.Key())
		}
	}
}
