package syncmp

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/proto"
)

// RoundMemo is one synchronous round from a fixed source state, shared by
// every environment action applied to it. Every action of the paper's
// layerings (and of M^mf) runs the same round with some messages lost, so
// the send vectors are common to all successors and a receiver's inbox is
// determined by the set of senders it loses. The memo calls Send once per
// process and Deliver (with Decide on the result) once per distinct
// (receiver, lost senders) pair, then assembles each successor from those
// shared results. It relies on Send, Deliver and Decide being pure
// functions of their arguments (the proto.SyncProtocol contract, checked by
// proto.ValidateSync).
//
// A memo belongs to one enumeration: it is not safe for concurrent use and
// should be dropped once the source state's successors are built.
type RoundMemo struct {
	p      proto.SyncProtocol
	x      *State
	record bool
	sends  [][]string
	// base[to] is the set of senders whose message to process to every
	// action loses (silenced or general-omission failures); live[to] is the
	// set of senders other than to whose message to to is non-empty, so a
	// lost set only matters within it.
	base []uint64
	live []uint64
	// omit[i] is the set of receivers losing process i's message in the
	// action being applied (meaningful for the processes in the action's
	// omitting set only).
	omit []uint64
	// recv[to] holds the deliveries computed for receiver to.
	recv [][]delivery
	in   []string
	envs []envEntry
	buf  []byte
}

// delivery is one receiver's next local state, and its decision, given the
// (effective) set of senders it lost.
type delivery struct {
	lost    uint64
	local   string
	decided int
}

// envEntry caches a successor environment key by failed set.
type envEntry struct {
	failed uint64
	key    string
}

// NewRoundMemo starts the round from x under protocol p. The flags are the
// failure rule the memo's actions share: record marks each omitting
// process as failed in the successor; silenceFailed loses every message
// from a process already failed at x (the Section-6 silencing rule);
// generalOmission also loses every message to one (general omission
// instead of the paper's sending omission).
func NewRoundMemo(p proto.SyncProtocol, x *State, record, silenceFailed, generalOmission bool) *RoundMemo {
	n := x.n
	masks := make([]uint64, 3*n)
	slab := make([]delivery, n*(n+1))
	r := &RoundMemo{
		p:      p,
		x:      x,
		record: record,
		sends:  make([][]string, n),
		base:   masks[:n:n],
		live:   masks[n : 2*n : 2*n],
		omit:   masks[2*n:],
		recv:   make([][]delivery, n),
		in:     make([]string, n),
	}
	for i, l := range x.locals {
		r.sends[i] = p.Send(l)
	}
	all := uint64(1)<<uint(n) - 1
	for to := 0; to < n; to++ {
		for i := 0; i < n; i++ {
			if i != to && r.sends[i][to] != "" {
				r.live[to] |= 1 << uint(i)
			}
		}
		if silenceFailed {
			r.base[to] = x.failed
		}
		if generalOmission && x.failed&(1<<uint(to)) != 0 {
			r.base[to] = all
		}
		r.recv[to] = slab[to*(n+1) : to*(n+1) : (to+1)*(n+1)]
	}
	return r
}

// Omit returns the successor in which process j's messages to the
// processes in omitTo are lost (omitTo == 0 is the failure-free round). j
// is recorded as failed if the memo records failures and omitTo is
// non-empty.
func (r *RoundMemo) Omit(j int, omitTo uint64) *State {
	failed, from := r.x.failed, uint64(0)
	if omitTo != 0 {
		from = 1 << uint(j)
		r.omit[j] = omitTo
		if r.record {
			failed |= from
		}
	}
	return r.next(from, failed)
}

// omitMany returns the successor in which every listed process omits to
// its prefix set [K] at once; each is recorded as failed if the memo
// records failures. A process listed twice omits per its last entry.
func (r *RoundMemo) omitMany(oms []Omission) *State {
	failed, from := r.x.failed, uint64(0)
	for _, om := range oms {
		from |= 1 << uint(om.J)
		r.omit[om.J] = OmitMask(om.K)
	}
	if r.record {
		failed |= from
	}
	return r.next(from, failed)
}

// next assembles the successor with failed set failed in which each
// process i in from loses its messages to the receivers in omit[i].
func (r *RoundMemo) next(from, failed uint64) *State {
	n := r.x.n
	locals := make([]string, n)
	decided := make([]int, n)
	for to := 0; to < n; to++ {
		lost := r.base[to]
		for f := from; f != 0; f &= f - 1 {
			i := bits.TrailingZeros64(f)
			if r.omit[i]&(1<<uint(to)) != 0 {
				lost |= 1 << uint(i)
			}
		}
		locals[to], decided[to] = r.deliver(to, lost&r.live[to])
	}
	env := r.envKey(failed)
	r.buf = proto.AppendJoin(proto.AppendJoin(r.buf[:0], env), locals...)
	return &State{
		n:       n,
		round:   r.x.round + 1,
		locals:  locals,
		failed:  failed,
		trackEn: r.x.trackEn,
		decided: decided,
		inputs:  r.x.inputs,
		key:     string(r.buf),
		envKey:  env,
	}
}

// deliver returns receiver to's next local state and decision when it
// loses the messages of the senders in lost (a subset of live[to]),
// computing them on the first request.
func (r *RoundMemo) deliver(to int, lost uint64) (string, int) {
	for _, d := range r.recv[to] {
		if d.lost == lost {
			return d.local, d.decided
		}
	}
	got := r.live[to] &^ lost
	for i := range r.in {
		r.in[i] = ""
		if got&(1<<uint(i)) != 0 {
			r.in[i] = r.sends[i][to]
		}
	}
	d := delivery{lost: lost, local: r.p.Deliver(r.x.locals[to], r.in), decided: core.Undecided}
	if v, ok := r.p.Decide(d.local); ok {
		d.decided = v
	}
	r.recv[to] = append(r.recv[to], d)
	return d.local, d.decided
}

// envKey returns the successors' environment key for failed set failed.
func (r *RoundMemo) envKey(failed uint64) string {
	for _, e := range r.envs {
		if e.failed == failed {
			return e.key
		}
	}
	key := envKeyOf(r.x.round+1, failed, r.x.trackEn)
	r.envs = append(r.envs, envEntry{failed: failed, key: key})
	return key
}
