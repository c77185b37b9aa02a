package syncmp

import (
	"repro/internal/core"
	"repro/internal/proto"
)

// The plain, single-action round and the one-action entry points the
// models' RoundMemo is tested against. Round is the textbook definition of
// a synchronous round under message loss; ApplyAction and ApplyMulti run
// one action through a RoundMemo without a cache.

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

// Apply is the one-action round: it applies the environment action in
// which process j's messages to the processes in omitTo are lost, under
// the failure rule of Memo's flags, building the successor through the
// table's memos without a cache.
func (t *Table) Apply(x *State, j int, omitTo uint64, record, silenceFailed, generalOmission bool) *State {
	r := t.Memo(x, core.Prober{}, record, silenceFailed, generalOmission)
	r.Omit(0, j, omitTo)
	return r.Done().(*State)
}

// ApplyMulti applies one round in which every listed process fails
// simultaneously (and previously-failed processes stay silenced). It is a
// one-action RoundMemo over the model's table, without a cache.
func (m *MultiModel) ApplyMulti(x *State, oms []Omission) *State {
	r := m.tab.Memo(x, core.Prober{}, true, true, false)
	r.omitMany(0, oms)
	return r.Done().(*State)
}

// OmitMany runs omitMany, for the tests of package syncmp_test.
func (r *RoundMemo) OmitMany(label uint32, oms []Omission) { r.omitMany(label, oms) }
