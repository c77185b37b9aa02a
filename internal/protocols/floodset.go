// Package protocols provides the concrete deterministic protocols the
// framework instantiates the paper's (universally quantified) theorems with:
// correct ones, which the analysis engine must certify, and deliberately
// too-fast or asynchronous heuristics, which the engine must refute with a
// concrete witness run.
package protocols

import (
	"strconv"

	"repro/internal/proto"
)

// FloodSet is the classical t-resilient synchronous consensus protocol
// (Lynch, ch. 6): every process maintains the set W of input values it has
// seen, floods W every round, and after Rounds rounds decides min(W).
//
// With Rounds = t+1 it solves consensus in the t-resilient synchronous
// model with crash failures; the paper's Section 6 shows no protocol can do
// better, and the analysis engine refutes the Rounds = t variant.
//
// Under sending-omission failures (the Section 6 environment blocks an
// arbitrary subset of a faulty process's messages in its first faulty round)
// FloodSet still solves consensus with Rounds = t+1: the standard argument —
// some round is failure-free among t+1 rounds, after which all W sets are
// equal and stay equal — applies verbatim.
//
// Local state encoding: round | W (sorted int set). The id and n are not
// needed after Init.
type FloodSet struct {
	// Rounds is the round after which the process decides min(W).
	Rounds int
}

var _ proto.SetInbox = FloodSet{}

// SetInbox implements proto.SetInbox: Deliver unions the sets it receives,
// so only the distinct messages of an inbox matter.
func (FloodSet) SetInbox() {}

// Name implements proto.SyncProtocol.
func (f FloodSet) Name() string { return "floodset(R=" + strconv.Itoa(f.Rounds) + ")" }

// Init implements proto.SyncProtocol.
func (f FloodSet) Init(n, id, input int) string {
	return proto.Join("0", proto.EncodeIntSet([]int{input}))
}

// Send implements proto.SyncProtocol: broadcast W.
func (f FloodSet) Send(state string) []string {
	var buf [setBuf]int
	_, w := parsePhaseSet(state, buf[:0])
	// The number of processes is not recorded in the state; emit a
	// broadcast vector sized by demand: the model only indexes out[j] for
	// j < n, so we use a self-describing broadcast.
	return broadcast(proto.EncodeIntSet(w))
}

// Deliver implements proto.SyncProtocol. A malformed message is ignored.
func (f FloodSet) Deliver(state string, in []string) string {
	var buf [setBuf]int
	round, w := parsePhaseSet(state, buf[:0])
	for _, m := range in {
		w, _ = proto.AppendInts(w, m)
	}
	return formatPhaseSet(round+1, w)
}

// Decide implements proto.SyncProtocol: after Rounds rounds, decide min(W).
func (f FloodSet) Decide(state string) (int, bool) {
	return decideMinAfter(state, f.Rounds)
}

// broadcast returns a virtual send vector that yields msg for every index.
// Models index send vectors with 0 <= j < n; broadcastVec supports any n up
// to maxProcs.
func broadcast(msg string) []string {
	out := make([]string, maxProcs)
	for i := range out {
		out[i] = msg
	}
	return out
}

// maxProcs bounds the broadcast vector size; the framework's exhaustive
// analyses are only tractable for small n, so 16 is generous.
const maxProcs = 16
