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
// determined by the senders it still hears from. The memo resolves each
// receiver's inbox once to the receiver's next local id, through the
// table's model-wide Deliver memo, and names the inbox in its own
// per-receiver list by the classes of senders heard: a sender's class is
// the first live sender whose message to that receiver has the same id
// under a proto.SetInbox protocol, and the sender itself otherwise.
//
// Consecutive actions change few receivers: x(j,[k]) and x(j,[k+1]) agree
// modulo process k (the proof of Lemma 5.1). So Omit re-resolves only the
// receivers whose lost set can differ from the previous action's. When none
// of their ids changes and the failed set is the previous one, the
// successor is the previous successor, emitted again with no key written
// and no probe. Otherwise the memo writes the successor's cache key as
// (round, failed set, local ids) and probes it; only on a miss does it
// build the successor's locals, decisions and canonical key. Every
// successor is emitted into the Prober with its action's label id.
//
// A memo belongs to one enumeration: it is not safe for concurrent use.
// Table.Memo hands one out and Done returns it to the table's pool.
type RoundMemo struct {
	t      *Table
	p      core.Prober
	x      *State
	record bool
	// src holds the source state's local ids, sends their Send vectors as
	// message ids (table-owned, shared).
	src   []uint32
	sends [][]uint32
	// base[to] is the set of senders whose message to process to every
	// action loses (silenced or general-omission failures); live[to] is the
	// set of senders other than to with a message to to, so a lost set only
	// matters within it.
	base []uint64
	live []uint64
	// cls[to*n+i] is live sender i's class for receiver to; dup[to] holds
	// the live senders that are not the first of their class.
	cls []uint8
	dup []uint64
	// omit[i] is the set of receivers losing process i's message in the
	// action being applied (meaningful for the processes in the action's
	// omitting set only).
	omit []uint64
	// recv[to] holds the deliveries resolved for receiver to.
	recv [][]delivery
	// ids holds the local ids of the last successor enumerated, last and
	// lastID that successor and its id (last is nil before the first), and
	// lastFailed its failed set. lastFrom and lastTo are the omitter (a
	// bitmask, 0 for none) and the omission set of the action before: every
	// receiver outside the two actions' omission sets keeps its id.
	// lastFrom is ^0 when no receiver may keep one.
	ids                          []uint32
	last                         core.State
	lastID                       uint32
	lastFailed, lastFrom, lastTo uint64
	// in and strs are an inbox's message ids and strings, set its sorted
	// distinct message ids (deliverSetKey's scratch).
	in   []uint32
	set  []uint32
	strs []string
	envs []envEntry
	key  []byte
	buf  []byte
}

// delivery is one receiver's next local id given the classes of the
// senders it hears from.
type delivery struct {
	heard uint64
	id    uint32
}

// envEntry caches a successor environment key by failed set.
type envEntry struct {
	failed uint64
	key    string
}

// Memo starts the round from x, resolving successor keys through p and
// emitting the successors into it. The flags are the failure rule
// the memo's actions share: record marks each omitting process as failed
// in the successor; silenceFailed loses every message from a process
// already failed at x (the Section-6 silencing rule); generalOmission also
// loses every message to one (general omission instead of the paper's
// sending omission).
func (t *Table) Memo(x *State, p core.Prober, record, silenceFailed, generalOmission bool) *RoundMemo {
	r, _ := t.memos.Get().(*RoundMemo)
	if r == nil {
		r = &RoundMemo{t: t}
	}
	n := x.n
	r.p, r.x, r.record = p, x, record
	r.src = t.idsOf(r.src[:0], x)
	r.sends = grow(r.sends, n)
	r.base, r.live, r.omit = grow(r.base, n), grow(r.live, n), grow(r.omit, n)
	r.cls, r.dup = grow(r.cls, n*n), grow(r.dup, n)
	r.recv = grow(r.recv, n)
	r.ids, r.in, r.set, r.strs = grow(r.ids, n), grow(r.in, n), grow(r.set, n), grow(r.strs, n)
	r.envs = r.envs[:0]
	for i, id := range r.src {
		r.sends[i] = t.locals.Sends(id)
	}
	all := uint64(1)<<uint(n) - 1
	for to := 0; to < n; to++ {
		r.live[to], r.base[to], r.dup[to] = 0, 0, 0
		for i := 0; i < n; i++ {
			m := r.sends[i][to]
			if i == to || m == 0 {
				continue
			}
			r.cls[to*n+i] = uint8(i)
			for c := 0; t.set && c < i; c++ {
				if r.live[to]&(1<<uint(c)) != 0 && r.sends[c][to] == m {
					r.cls[to*n+i] = uint8(c)
					r.dup[to] |= 1 << uint(i)
					break
				}
			}
			r.live[to] |= 1 << uint(i)
		}
		if silenceFailed {
			r.base[to] = x.failed
		}
		if generalOmission && x.failed&(1<<uint(to)) != 0 {
			r.base[to] = all
		}
		r.recv[to] = r.recv[to][:0]
	}
	r.last, r.lastFrom, r.lastTo = nil, ^uint64(0), all
	return r
}

// grow returns s resized to length n, reusing its array when it can.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Done returns the memo to its table's pool, and the last successor it
// enumerated (nil for none), which is a one-action memo's result.
func (r *RoundMemo) Done() core.State {
	last := r.last
	r.p, r.x, r.last = core.Prober{}, nil, nil
	r.t.memos.Put(r)
	return last
}

// Omit enumerates, with label id label, the successor in which process j's
// messages to the processes in omitTo are lost (omitTo == 0 is the
// failure-free round). j is recorded as failed if the memo records
// failures and omitTo is non-empty. Only the receivers whose lost set can
// differ from the previous action's are re-resolved: with the same
// omitter, those in one omission set but not the other; with another, those
// in either.
func (r *RoundMemo) Omit(label uint32, j int, omitTo uint64) {
	failed, from := r.x.failed, uint64(0)
	if omitTo != 0 {
		from = 1 << uint(j)
		r.omit[j] = omitTo
		if r.record {
			failed |= from
		}
	}
	redo := omitTo | r.lastTo
	if from == r.lastFrom {
		redo = omitTo ^ r.lastTo
	}
	r.lastFrom, r.lastTo = from, omitTo
	r.emit(label, from, failed, redo)
}

// omitMany enumerates the successor in which every listed process omits to
// its prefix set [K] at once; each is recorded as failed if the memo
// records failures. A process listed twice omits per its last entry. It
// re-resolves every receiver, and so does the Omit after it.
func (r *RoundMemo) omitMany(label uint32, oms []Omission) {
	failed, from := r.x.failed, uint64(0)
	for _, om := range oms {
		from |= 1 << uint(om.J)
		r.omit[om.J] = OmitMask(om.K)
	}
	if r.record {
		failed |= from
	}
	all := uint64(1)<<uint(len(r.ids)) - 1
	r.lastFrom, r.lastTo = ^uint64(0), all
	r.emit(label, from, failed, all)
}

// emit enumerates the successor with failed set failed in which each
// process i in from loses its messages to the receivers in omit[i]. It
// re-resolves the receivers in redo; the others keep the last successor's
// ids. If no re-resolved id changes and the failed set is the last
// successor's, that successor is emitted again. Otherwise emit probes the
// key and builds the successor on a miss.
func (r *RoundMemo) emit(label uint32, from, failed, redo uint64) {
	same := r.last != nil && failed == r.lastFailed
	for redo &= uint64(1)<<uint(len(r.ids)) - 1; redo != 0; redo &= redo - 1 {
		to := bits.TrailingZeros64(redo)
		lost := r.base[to]
		for f := from; f != 0; f &= f - 1 {
			i := bits.TrailingZeros64(f)
			if r.omit[i]&(1<<uint(to)) != 0 {
				lost |= 1 << uint(i)
			}
		}
		id := r.deliver(to, lost)
		same = same && id == r.ids[to]
		r.ids[to] = id
	}
	if !same {
		id, st, ok := r.probe(failed)
		if !ok {
			id, st = r.p.Intern(r.key, r.build(failed))
		}
		r.last, r.lastID, r.lastFailed = st, id, failed
	}
	r.p.Emit(label, r.lastID, r.last)
}

// probe writes the key of the successor whose local ids are r.ids and
// looks it up: the path every duplicate successor ends on.
//
//lint:hotpath
func (r *RoundMemo) probe(failed uint64) (uint32, core.State, bool) {
	r.key = appendStateKey(r.key[:0], r.x.round+1, failed, r.x.trackEn, r.ids)
	return r.p.Probe(r.key)
}

// deliver returns receiver to's next local id when it loses the messages
// of the senders in lost: from the memo's own list, keyed by the classes
// of senders heard, else from the table's model-wide Deliver memo (keyed
// by the inbox's message ids per sender, or by their set for a
// proto.SetInbox protocol), else by running Deliver.
func (r *RoundMemo) deliver(to int, lost uint64) uint32 {
	got, cls := r.live[to]&^lost, r.cls[to*len(r.ids):]
	heard := got &^ r.dup[to]
	for d := got & r.dup[to]; d != 0; d &= d - 1 {
		heard |= 1 << cls[bits.TrailingZeros64(d)]
	}
	for _, d := range r.recv[to] {
		if d.heard == heard {
			return d.id
		}
	}
	for i := range r.in {
		r.in[i] = 0
		if got&(1<<uint(i)) != 0 {
			r.in[i] = r.sends[i][to]
		}
	}
	if r.t.set {
		r.buf = deliverSetKey(r.buf[:0], r.src[to], r.in, r.set)
	} else {
		r.buf = deliverKey(r.buf[:0], r.src[to], r.in)
	}
	id, ok := r.t.deliver.Get(r.buf)
	if !ok {
		id = r.t.deliverSlow(r.buf, r.src[to], r.in, r.strs)
	}
	r.recv[to] = append(r.recv[to], delivery{heard: heard, id: id})
	return id
}

// build assembles the successor whose local ids are r.ids: its locals,
// decisions and canonical key, built once.
func (r *RoundMemo) build(failed uint64) *State {
	n := len(r.ids)
	locals := make([]string, n)
	decided := make([]int, n)
	ids := make([]uint32, n)
	for i, id := range r.ids {
		locals[i], decided[i], ids[i] = r.t.locals.Local(id), r.t.locals.Decided(id), id
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
		tab:     r.t,
		ids:     ids,
	}
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
