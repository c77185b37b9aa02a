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
// Consecutive actions change few receivers: x(j,[k]) and x(j,[k+1]) differ
// only at process k (the proof of Lemma 5.1), and not even there when k
// never hears j, or hears j's message from another member of its class.
// So the memo marks, per sender j, the receivers critical for j: those
// that hear j under the losses every action shares and hear no other
// member of j's class. Omit re-resolves only the critical receivers whose
// lost set differs from the previous action's; every other receiver hears
// the same classes, which key its next local id, and keeps its id. When
// no re-resolved id changes and the failed set is the previous one, the
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
	// the live senders that are not the first of their class. crit[j] is
	// the set of receivers critical for sender j: losing j's message, and
	// no other, changes the classes they hear.
	cls  []uint8
	dup  []uint64
	crit []uint64
	// omit[i] is the set of receivers losing process i's message in the
	// action being applied (meaningful for the processes in the action's
	// omitting set only).
	omit []uint64
	// recv[to] holds the deliveries resolved for receiver to.
	recv [][]delivery
	// ids holds the local ids of the last successor enumerated, last and
	// lastID that successor and its id (last is nil before the first), and
	// lastFailed its failed set. lastFrom is the omitter of the action
	// before (a bitmask, 0 for none), and lastHit the receivers whose
	// classes heard it changed: those of its omission set critical for its
	// omitter. Every other receiver hears what the shared losses let it
	// hear. lastFrom is ^0, and lastHit every receiver, when no receiver
	// may keep its id.
	ids                           []uint32
	last                          core.State
	lastID                        uint32
	lastFailed, lastFrom, lastHit uint64
	// in and strs are an inbox's message ids and strings, set its sorted
	// distinct message ids (deliverSetKey's scratch).
	in   []uint32
	set  []uint32
	strs []string
	key  []byte
	buf  []byte
	// resolved, listMisses and runs count this source's receiver
	// resolutions, those its lists could not answer, and its Deliver runs,
	// for the table's totals.
	resolved, listMisses, runs uint64
}

// delivery is one receiver's next local id given the classes of the
// senders it hears from.
type delivery struct {
	heard uint64
	id    uint32
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
	r.cls, r.dup, r.crit = grow(r.cls, n*n), grow(r.dup, n), grow(r.crit, n)
	r.recv = grow(r.recv, n)
	r.ids, r.in, r.set, r.strs = grow(r.ids, n), grow(r.in, n), grow(r.set, n), grow(r.strs, n)
	for i, id := range r.src {
		r.sends[i] = t.locals.Sends(id)
		r.crit[i] = 0
	}
	all, set := uint64(1)<<uint(n)-1, t.set
	for to := 0; to < n; to++ {
		cls, live, dup := r.cls[to*n:to*n+n], uint64(0), uint64(0)
		for i := 0; i < n; i++ {
			m := r.sends[i][to]
			if i == to || m == 0 {
				continue
			}
			cls[i] = uint8(i)
			for c := 0; set && c < i; c++ {
				if live&(1<<uint(c)) != 0 && r.sends[c][to] == m {
					cls[i], dup = uint8(c), dup|1<<uint(i)
					break
				}
			}
			live |= 1 << uint(i)
		}
		r.live[to], r.base[to], r.dup[to] = live, 0, dup
		if silenceFailed {
			r.base[to] = x.failed
		}
		if generalOmission && x.failed&(1<<uint(to)) != 0 {
			r.base[to] = all
		}
		r.markCritical(to)
		r.recv[to] = r.recv[to][:0]
	}
	r.last, r.lastFrom, r.lastHit = nil, ^uint64(0), all
	return r
}

// markCritical adds receiver to to crit[j] for every sender j that to
// hears under the shared losses and whose class it hears from no other
// sender.
func (r *RoundMemo) markCritical(to int) {
	heard, cls := r.live[to]&^r.base[to], r.cls[to*len(r.src):]
	var once, twice uint64 // classes heard from at least one sender, from two
	for h := heard; h != 0; h &= h - 1 {
		c := uint64(1) << cls[bits.TrailingZeros64(h)]
		twice |= once & c
		once |= c
	}
	for h := heard; h != 0; h &= h - 1 {
		j := bits.TrailingZeros64(h)
		if twice&(1<<cls[j]) == 0 {
			r.crit[j] |= 1 << uint(to)
		}
	}
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
	r.t.resolved.Add(r.resolved)
	r.t.listMisses.Add(r.listMisses)
	r.t.runs.Add(r.runs)
	r.p, r.x, r.last = core.Prober{}, nil, nil
	r.resolved, r.listMisses, r.runs = 0, 0, 0
	r.t.memos.Put(r)
	return last
}

// Omit enumerates, with label id label, the successor in which process j's
// messages to the processes in omitTo are lost (omitTo == 0 is the
// failure-free round, which has no omitter). j is recorded as failed if
// the memo records failures and omitTo is non-empty. Only the receivers
// whose heard classes can differ from the previous action's are
// re-resolved: with the same omitter, the critical receivers in one
// omission set but not the other; with another, the critical receivers of
// both omission sets, each for its own omitter.
func (r *RoundMemo) Omit(label uint32, j int, omitTo uint64) {
	failed, from, hit := r.x.failed, uint64(0), uint64(0)
	if omitTo != 0 {
		from, hit = 1<<uint(j), omitTo&r.crit[j]
		r.omit[j] = omitTo
		if r.record {
			failed |= from
		}
	}
	redo := hit | r.lastHit
	if from == r.lastFrom {
		redo = hit ^ r.lastHit
	}
	r.lastFrom, r.lastHit = from, hit
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
	r.lastFrom, r.lastHit = ^uint64(0), all
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
	r.resolved++
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
	r.listMisses++
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
		r.runs++
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
	env := r.t.envKey(r.buf[:0], r.x.round+1, failed, r.x.trackEn)
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
