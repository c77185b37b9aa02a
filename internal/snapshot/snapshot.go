// Package snapshot implements the atomic-snapshot shared-memory model —
// the remaining extension model named by Corollary 7.3 — under the
// permutation layering. A local phase of process i is: update the i-th
// segment of the snapshot object (with the value computed from the state at
// the start of the phase), then take one atomic scan of all segments.
//
// Layer actions mirror the message-passing permutation layering S^per
// exactly: full permutations [p1..pn] (phases executed sequentially),
// drop-one sequences [p1..p_{n-1}], and concurrent pairs
// [..,{pk,pk+1},..] in which both block members update before either
// scans — the immediate-snapshot block, under which each sees the other.
// Together with internal/asyncmp this demonstrates the paper's point that
// the same layering analysis is model-independent: the package tests check
// the identical transposition-similarity chain and certify the identical
// refutation.
//
// The environment's local state is the snapshot object's segments. Unlike
// the cumulative message histories of asyncmp, segments are overwritten in
// place, so the state stays small. The model runs on internal/shmem's
// substrate, with asyncmp's action list; its states are shmem.States.
package snapshot

import (
	"fmt"

	"repro/internal/asyncmp"
	"repro/internal/proto"
	"repro/internal/shmem"
)

// Model is the snapshot model with the permutation layering. It
// implements core.Model and reuses the shared-memory protocol interface.
type Model struct{ *shmem.Layering }

// New returns the snapshot model for protocol p on n processes.
func New(p proto.SMProtocol, n int) *Model {
	name := fmt.Sprintf("snapshot/Sper(n=%d,%s)", n, p.Name())
	return &Model{shmem.NewLayering(p, n, name, false, func() []shmem.Action {
		scheds := asyncmp.Schedules(n)
		out := make([]shmem.Action, len(scheds))
		for i, s := range scheds {
			out[i] = phases(s)
		}
		return out
	})}
}

// Sequential applies whole update+scan phases in the given order.
func (m *Model) Sequential(x *shmem.State, order []int) *shmem.State {
	return m.Next(x, phases(asyncmp.Schedule{Order: order, Pair: -1}))
}

// WithPair applies the action with the processes at positions k and k+1
// run as an immediate-snapshot block: both update, then both scan.
func (m *Model) WithPair(x *shmem.State, order []int, k int) *shmem.State {
	return m.Next(x, phases(asyncmp.Schedule{Order: order, Pair: k}))
}

// phases is s as steps: each phase an update then a scan, s's block as
// one step.
func phases(s asyncmp.Schedule) shmem.Action {
	a := shmem.Action{Label: s.Label()}
	for i := 0; i < len(s.Order); i++ {
		b := uint64(1) << uint(s.Order[i])
		if i == s.Pair {
			i++
			b |= 1 << uint(s.Order[i])
		}
		a.Steps = append(a.Steps, shmem.Step{Write: b, Scan: b})
	}
	return a
}
