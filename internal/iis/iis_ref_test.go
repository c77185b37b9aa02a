package iis_test

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/iis"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/shmem"
)

// The string reference for IIS: one round executed on a fresh []string
// memory, one WriteValue and one Observe call per process, as the model ran
// it before it enumerated through ids. The package tests check the model's
// enumeration against it.

// refApply executes one IIS round from x under the ordered partition.
func refApply(p proto.SMProtocol, x *shmem.State, partition [][]int) *shmem.State {
	round, locals, inputs := refStrings(x)
	mem := make([]string, x.N()) // this round's fresh memory
	for _, block := range partition {
		for _, i := range block {
			if v := p.WriteValue(x.Local(i)); v != "" {
				mem[i] = v
			}
		}
		for _, i := range block {
			locals[i] = p.Observe(x.Local(i), slices.Clone(mem))
		}
	}
	return shmem.NewState(p, round+1, nil, locals, inputs)
}

// refStrings returns x's round, read from its environment, and copies of
// its local states and inputs.
func refStrings(x *shmem.State) (round int, locals []string, inputs []int) {
	env, err := proto.Split(x.EnvKey())
	if err == nil && len(env) == 1 && len(env[0]) > 0 {
		round, err = strconv.Atoi(env[0][1:])
	}
	if err != nil {
		panic("iis: environment " + x.EnvKey() + " is not a round")
	}
	locals, inputs = make([]string, x.N()), make([]int, x.N())
	for i := range locals {
		locals[i], inputs[i] = x.Local(i), x.InputOf(i)
	}
	return round, locals, inputs
}

// TestMatchesStringReference: on every state reachable to depth 2 at n=2
// and n=3, under two SMVote bounds and full information, every ordered
// partition gives the reference's label and key, in enumeration order,
// through the cache and without it; and so does a reachable state rebuilt
// from its strings.
func TestMatchesStringReference(t *testing.T) {
	for _, p := range []proto.SMProtocol{protocols.SMVote{Phases: 2}, protocols.SMVote{Phases: 3}, protocols.SMFullInfo{}} {
		for _, n := range []int{2, 3} {
			m := iis.New(p, n)
			g, err := core.ExploreIDCtx(nil, m, 2, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref := func(x core.State) []core.Succ {
				var out []core.Succ
				for _, part := range iis.OrderedPartitions(n) {
					out = append(out, core.Succ{Action: iis.PartitionLabel(part), State: refApply(p, x.(*shmem.State), part)})
				}
				return out
			}
			for _, x := range g.States {
				sameSuccs(t, m.Name(), m.Successors(x), ref(x))
				sameSuccs(t, m.Name()+" uncached", m.Uncached().Successors(x), ref(x))
			}
			x := g.States[g.Len()-1].(*shmem.State)
			round, locals, inputs := refStrings(x)
			y := shmem.NewState(p, round, nil, locals, inputs)
			if c := core.CacheOf(m); c.ID(y) != c.ID(x) {
				t.Fatalf("%s: a state rebuilt from strings gets id %d, its original %d", m.Name(), c.ID(y), c.ID(x))
			}
			sameSuccs(t, m.Name()+" from strings", m.Successors(y), ref(x))
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
