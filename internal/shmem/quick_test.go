package shmem_test

import (
	"testing"
	"testing/quick"

	"repro/internal/protocols"
	"repro/internal/shmem"
)

// TestQuickScheduleDeterminism: replaying any synchronic action sequence
// yields identical keys.
func TestQuickScheduleDeterminism(t *testing.T) {
	const n = 3
	m := shmem.New(protocols.SMVote{Phases: 4}, n)
	f := func(inputBits uint8, choices []uint8) bool {
		if len(choices) > 3 {
			choices = choices[:3]
		}
		x := m.Initial([]int{int(inputBits) & 1, int(inputBits>>1) & 1, int(inputBits>>2) & 1})
		run := func() string {
			cur := x
			for _, c := range choices {
				succs := m.Successors(cur)
				next, ok := succs[int(c)%len(succs)].State.(*shmem.State)
				if !ok {
					return "cast-failure"
				}
				cur = next
			}
			return cur.Key()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRegistersInEnv: any two reachable states with equal keys have
// equal registers and locals; differing registers force differing EnvKeys.
func TestQuickRegistersInEnv(t *testing.T) {
	const n = 3
	m := shmem.New(protocols.SMVote{Phases: 4}, n)
	f := func(inputBits, c1, c2 uint8) bool {
		x := m.Initial([]int{int(inputBits) & 1, int(inputBits>>1) & 1, int(inputBits>>2) & 1})
		succs := m.Successors(x)
		a, ok1 := succs[int(c1)%len(succs)].State.(*shmem.State)
		b, ok2 := succs[int(c2)%len(succs)].State.(*shmem.State)
		if !ok1 || !ok2 {
			return false
		}
		ra, rb := a.Memory(), b.Memory()
		regsEqual := true
		for i := range ra {
			if ra[i] != rb[i] {
				regsEqual = false
				break
			}
		}
		if (a.EnvKey() == b.EnvKey()) != regsEqual {
			return false
		}
		if a.Key() == b.Key() && a.EnvKey() != b.EnvKey() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickStageOpsLegality: StageOps/AbsentOps always produce legal op
// sequences.
func TestQuickStageOpsLegality(t *testing.T) {
	const n = 3
	m := shmem.New(protocols.SMFullInfo{}, n)
	f := func(inputBits, jj, kk uint8) bool {
		x := m.Initial([]int{int(inputBits) & 1, int(inputBits>>1) & 1, int(inputBits>>2) & 1})
		j := int(jj) % n
		k := int(kk) % (n + 1)
		if _, err := m.ApplyOps(x, m.StageOps(j, k)); err != nil {
			return false
		}
		if _, err := m.ApplyOps(x, m.AbsentOps(j)); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
