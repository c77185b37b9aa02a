// Package shmem implements M^rw, the asynchronous single-writer/
// multi-reader shared-memory model, together with the paper's synchronic
// layering S^rw (Section 5.1), and the shared-memory substrate that the
// snapshot and iis packages build their models on.
//
// The shared registers V_0..V_{n-1} live in the environment's local state.
// A local phase of process i is: at most one write into V_i, followed by a
// maximal sequence of reads covering every register once. The synchronic
// layering organizes local phases into virtual rounds of four stages
//
//	W1, R1, W2, R2
//
// driven by environment actions of two kinds (0-based ids, k in 0..n):
//
//   - (j,A): every process except j ("the proper processes") writes in W1
//     and reads in R1; the slow process j neither writes nor reads.
//   - (j,k): proper processes write in W1 and j writes in W2; proper
//     processes with id < k read in R1 (seeing V_j's pre-round value), while
//     j and the proper processes with id >= k read in R2 (seeing j's fresh
//     write).
//
// Every S^rw-run is fair — all processes except at most one take infinitely
// many local phases — and the model displays no finite failure: FailedAt is
// always false.
//
// # The substrate
//
// Every action of S^rw, of the snapshot model and of an IIS round is a
// list of steps (Action): some processes write the value WriteValue gives
// for their local state at the start of the action, then some scan the
// whole memory with Observe. One State type and one model type (Layering)
// serve all three; the snapshot and iis packages supply action tables and
// one-action entry points. An iterated model (IIS) accesses a fresh memory
// every round, so its states keep the round instead.
//
// Enumeration is key-first: a model's id table gives local states, written
// values and environments dense ids and runs Observe once per (local id,
// memory value ids); a successor's cache key is (environment id, local
// ids), and its State is built only when the cache probe misses. Key,
// checkpoints and DOT output use the canonical strings. The string
// references the package tests check this against are in the
// *_ref_test.go files of the three packages.
package shmem

import (
	"fmt"
	"strconv"

	"repro/internal/proto"
)

// Model is M^rw with the synchronic layering S^rw. It implements
// core.Model.
type Model struct{ *Layering }

// New returns M^rw/S^rw for protocol p on n processes.
func New(p proto.SMProtocol, n int) *Model {
	name := fmt.Sprintf("shmem/Srw(n=%d,%s)", n, p.Name())
	return &Model{NewLayering(p, n, name, false, func() []Action { return rwActions(n) })}
}

// Apply performs the virtual round of action (j,k) on x.
func (m *Model) Apply(x *State, j, k int) *State { return m.Next(x, rwRound(m.N(), j, k)) }

// ApplyAbsent performs the virtual round of action (j,A) on x: the proper
// processes write in W1 and read in R1; j neither writes nor reads.
func (m *Model) ApplyAbsent(x *State, j int) *State { return m.Next(x, rwAbsent(m.N(), j)) }

// rwActions is the S^rw action table S(x) = { x(j,k) } ∪ { x(j,A) }: for
// each j, the actions (j,0) … (j,n) and then (j,A).
func rwActions(n int) []Action {
	out := make([]Action, 0, n*(n+2))
	for j := 0; j < n; j++ {
		for k := 0; k <= n; k++ {
			out = append(out, rwRound(n, j, k))
		}
		out = append(out, rwAbsent(n, j))
	}
	return out
}

// rwRound is the action (j,k): the proper processes write (W1), those
// below k scan (R1), j writes (W2), and the rest scan (R2).
func rwRound(n, j, k int) Action {
	all := uint64(1)<<uint(n) - 1
	proper := all &^ (1 << uint(j))
	early := proper & (uint64(1)<<uint(k) - 1)
	label := "(" + strconv.Itoa(j) + "," + strconv.Itoa(k) + ")"
	return Action{label, []Step{{Write: proper, Scan: early}, {Write: 1 << uint(j), Scan: all &^ early}}}
}

// rwAbsent is the action (j,A): the proper processes write, then scan.
func rwAbsent(n, j int) Action {
	proper := (uint64(1)<<uint(n) - 1) &^ (1 << uint(j))
	return Action{"(" + strconv.Itoa(j) + ",A)", []Step{{Write: proper, Scan: proper}}}
}
