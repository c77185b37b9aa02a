package syncmp

import (
	"strconv"

	"repro/internal/proto"
)

// DropFunc decides whether the message from process `from` to process `to`
// is lost in the current round.
type DropFunc func(from, to int) bool

// Round executes one synchronous round of protocol p from the given local
// states: every process emits its messages, drop filters them, and every
// process consumes what arrived. It returns the next local states.
//
// The models build their successors through RoundMemo, which shares one
// round among all actions from a state and one Deliver result among all
// states; Round is the plain, single-action definition the memo is tested
// against.
func Round(p proto.SyncProtocol, locals []string, drop DropFunc) []string {
	n := len(locals)
	sends := make([][]string, n)
	for i, l := range locals {
		sends[i] = p.Send(l)
	}
	next := make([]string, n)
	in := make([]string, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			switch {
			case i == j:
				in[i] = ""
			case drop != nil && drop(i, j):
				in[i] = ""
			default:
				in[i] = sends[i][j]
			}
		}
		next[j] = p.Deliver(locals[j], in)
	}
	return next
}

// OmitMask returns the paper's omission set [k] = {first k processes} as a
// bitmask over 0-based ids: processes 0..k-1.
func OmitMask(k int) uint64 {
	return (uint64(1) << uint(k)) - 1
}

// PrefixLabels returns the labels "(j,[k])" of every prefix action (process
// j omits to the first k processes) with 0 <= j < n and 1 <= k <= n, at
// index j*n + k-1, so a model can label its edges without building a
// string per edge.
func PrefixLabels(n int) []string {
	out := make([]string, 0, n*n)
	for j := 0; j < n; j++ {
		for k := 1; k <= n; k++ {
			out = append(out, "("+strconv.Itoa(j)+",["+strconv.Itoa(k)+"])")
		}
	}
	return out
}

// ApplyAction applies the environment action (j, G) to state x under
// protocol p: messages from j to the processes in omitTo are lost this
// round. If silenceFailed is true, all messages from processes already
// recorded as failed in x are also lost (the Section-6 silencing rule). If
// record is true and omitTo is non-empty, j is recorded as failed in the
// successor's environment.
//
// j is a 0-based process id; omitTo is a bitmask of 0-based ids.
func ApplyAction(p proto.SyncProtocol, x *State, j int, omitTo uint64, record, silenceFailed bool) *State {
	return ApplyActionMode(p, x, j, omitTo, record, silenceFailed, false)
}

// ApplyActionMode is ApplyAction with an explicit failure mode: when
// generalOmission is true, processes already recorded as failed also lose
// their incoming messages (general omission) instead of only their
// outgoing ones (sending omission, the paper's model). It is a one-action
// RoundMemo over a fresh table for p: the successor carries that table's
// ids, so a model it is handed to keys it from its strings.
func ApplyActionMode(p proto.SyncProtocol, x *State, j int, omitTo uint64, record, silenceFailed, generalOmission bool) *State {
	return NewTable(p, x.n).Apply(x, j, omitTo, record, silenceFailed, generalOmission)
}
