// Package iis implements the iterated immediate snapshot model (Borowsky &
// Gafni), the wait-free model the paper's permutation layering is inspired
// by and one of the extension models Corollary 7.3 mentions.
//
// In round r all processes access a fresh one-shot immediate-snapshot
// memory M_r. The environment's action is an ordered partition
// (B_1,...,B_m) of the processes into non-empty blocks: the blocks execute
// in order, and within a block all members first write (their protocol's
// WriteValue) and then all members snapshot the memory — so a process sees
// the writes of its own block and of all earlier blocks, and the one-round
// views form the standard chromatic subdivision of the simplex.
//
// Because each round's memory is never read again, the global state needs
// no environment component beyond the round number: the locals carry
// everything. Processes reuse the shared-memory protocol interface
// (proto.SMProtocol); Observe receives the visible snapshot with ""
// marking cells the process did not see. The model is internal/shmem's
// substrate run as an iterated model; its states are shmem.States.
package iis

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/proto"
	"repro/internal/shmem"
)

// Model is the IIS model; every layer is one one-shot immediate-snapshot
// round, one successor per ordered partition. It implements core.Model.
type Model struct {
	*shmem.Layering
	partitions [][][]int
}

// New returns the IIS model for protocol p on n processes.
func New(p proto.SMProtocol, n int) *Model {
	m := &Model{partitions: OrderedPartitions(n)}
	m.Layering = shmem.NewLayering(p, n, fmt.Sprintf("iis(n=%d,%s)", n, p.Name()), true, func() []shmem.Action {
		out := make([]shmem.Action, len(m.partitions))
		for i, part := range m.partitions {
			out[i] = round(part)
		}
		return out
	})
	return m
}

// Apply executes one IIS round under the ordered partition.
func (m *Model) Apply(x *shmem.State, partition [][]int) *shmem.State {
	return m.Next(x, round(partition))
}

// round is the IIS round under the ordered partition: each block writes,
// then scans.
func round(partition [][]int) shmem.Action {
	a := shmem.Action{Label: PartitionLabel(partition), Steps: make([]shmem.Step, len(partition))}
	for b, block := range partition {
		for _, i := range block {
			a.Steps[b].Write |= 1 << uint(i)
		}
		a.Steps[b].Scan = a.Steps[b].Write
	}
	return a
}

// PartitionLabel formats an ordered partition, e.g. "[{0,1},{2}]".
func PartitionLabel(partition [][]int) string {
	blocks := make([]string, len(partition))
	for b, block := range partition {
		ids := make([]string, len(block))
		for i, p := range block {
			ids[i] = strconv.Itoa(p)
		}
		blocks[b] = "{" + strings.Join(ids, ",") + "}"
	}
	return "[" + strings.Join(blocks, ",") + "]"
}

// OrderedPartitions enumerates all ordered partitions of {0..n-1} into
// non-empty blocks (Fubini enumeration), deterministically: blocks are
// internally sorted ascending, and partitions are emitted in recursive
// subset order.
func OrderedPartitions(n int) [][][]int {
	var out [][][]int
	var rec func(remaining int, acc [][]int)
	rec = func(remaining int, acc [][]int) {
		if remaining == 0 {
			out = append(out, slices.Clone(acc))
			return
		}
		// Enumerate non-empty submasks of remaining as the next block.
		for sub := remaining; sub > 0; sub = (sub - 1) & remaining {
			var block []int
			for i := 0; i < n; i++ {
				if sub&(1<<uint(i)) != 0 {
					block = append(block, i)
				}
			}
			rec(remaining&^sub, append(acc, block))
		}
	}
	rec(1<<uint(n)-1, nil)
	return out
}
