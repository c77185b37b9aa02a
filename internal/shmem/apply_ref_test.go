package shmem_test

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/shmem"
)

// The string reference for S^rw: the virtual rounds executed on []string
// registers, one WriteValue and one Observe call per process, as the model
// ran them before it enumerated through ids. The package tests check the
// model's enumeration against it.

// refRound performs the virtual round of action (j,k) on x.
func refRound(p proto.SMProtocol, x *shmem.State, j, k int) *shmem.State {
	n := x.N()
	regs := x.Memory()
	for i := 0; i < n; i++ {
		if v := p.WriteValue(x.Local(i)); i != j && v != "" {
			regs[i] = v
		}
	}
	afterW1 := slices.Clone(regs)
	if v := p.WriteValue(x.Local(j)); v != "" {
		regs[j] = v
	}
	locals := make([]string, n)
	for i := 0; i < n; i++ {
		if i != j && i < k {
			locals[i] = p.Observe(x.Local(i), slices.Clone(afterW1))
		} else {
			locals[i] = p.Observe(x.Local(i), slices.Clone(regs))
		}
	}
	return shmem.NewState(p, 0, regs, locals, inputsOf(x))
}

// refAbsent performs the virtual round of action (j,A) on x.
func refAbsent(p proto.SMProtocol, x *shmem.State, j int) *shmem.State {
	n := x.N()
	regs := x.Memory()
	for i := 0; i < n; i++ {
		if v := p.WriteValue(x.Local(i)); i != j && v != "" {
			regs[i] = v
		}
	}
	locals := make([]string, n)
	for i := 0; i < n; i++ {
		locals[i] = x.Local(i)
		if i != j {
			locals[i] = p.Observe(x.Local(i), slices.Clone(regs))
		}
	}
	return shmem.NewState(p, 0, regs, locals, inputsOf(x))
}

// refSuccessors is S^rw(x) in enumeration order: for each j, (j,0) …
// (j,n) and then (j,A).
func refSuccessors(p proto.SMProtocol, x *shmem.State) []core.Succ {
	var out []core.Succ
	for j := 0; j < x.N(); j++ {
		for k := 0; k <= x.N(); k++ {
			out = append(out, core.Succ{Action: "(" + strconv.Itoa(j) + "," + strconv.Itoa(k) + ")", State: refRound(p, x, j, k)})
		}
		out = append(out, core.Succ{Action: "(" + strconv.Itoa(j) + ",A)", State: refAbsent(p, x, j)})
	}
	return out
}

func inputsOf(x *shmem.State) []int {
	in := make([]int, x.N())
	for i := range in {
		in[i] = x.InputOf(i)
	}
	return in
}

func localsOf(x *shmem.State) []string {
	l := make([]string, x.N())
	for i := range l {
		l[i] = x.Local(i)
	}
	return l
}

// TestMatchesStringReference: on every state reachable to depth 2 at n=2
// and n=3, under two SMVote bounds and full information, every action
// gives the reference's label and key, in enumeration order, through the
// cache and without it. A reachable state rebuilt from its strings gets
// the id of the model's own and the same successors.
func TestMatchesStringReference(t *testing.T) {
	for _, p := range []proto.SMProtocol{protocols.SMVote{Phases: 2}, protocols.SMVote{Phases: 3}, protocols.SMFullInfo{}} {
		for _, n := range []int{2, 3} {
			m := shmem.New(p, n)
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
			y := shmem.NewState(p, 0, x.Memory(), localsOf(x), inputsOf(x))
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
