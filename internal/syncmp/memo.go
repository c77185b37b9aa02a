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
// determined by the set of senders it loses. The memo resolves each
// (receiver, lost senders) pair once to the receiver's next local id,
// through the table's model-wide Deliver memo, writes each successor's
// cache key as (round, failed set, local ids), and probes it. Only on a
// miss does it build the successor's locals, decisions and canonical key.
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
	// omit[i] is the set of receivers losing process i's message in the
	// action being applied (meaningful for the processes in the action's
	// omitting set only).
	omit []uint64
	// recv[to] holds the deliveries resolved for receiver to.
	recv [][]delivery
	// ids holds the successor's local ids being assembled; in and strs are
	// an inbox's message ids and strings.
	ids  []uint32
	in   []uint32
	strs []string
	envs []envEntry
	key  []byte
	buf  []byte
	out  []core.Succ
	oids []uint32
}

// delivery is one receiver's next local id given the (effective) set of
// senders it lost.
type delivery struct {
	lost uint64
	id   uint32
}

// envEntry caches a successor environment key by failed set.
type envEntry struct {
	failed uint64
	key    string
}

// Memo starts the round from x, resolving successor keys through p. size
// is the expected number of successors. The flags are the failure rule
// the memo's actions share: record marks each omitting process as failed
// in the successor; silenceFailed loses every message from a process
// already failed at x (the Section-6 silencing rule); generalOmission also
// loses every message to one (general omission instead of the paper's
// sending omission).
func (t *Table) Memo(x *State, p core.Prober, size int, record, silenceFailed, generalOmission bool) *RoundMemo {
	r, _ := t.memos.Get().(*RoundMemo)
	if r == nil {
		r = &RoundMemo{t: t}
	}
	n := x.n
	r.p, r.x, r.record = p, x, record
	r.src = t.idsOf(r.src[:0], x)
	r.sends = grow(r.sends, n)
	r.base, r.live, r.omit = grow(r.base, n), grow(r.live, n), grow(r.omit, n)
	r.recv = grow(r.recv, n)
	r.ids, r.in, r.strs = grow(r.ids, n), grow(r.in, n), grow(r.strs, n)
	r.envs = r.envs[:0]
	for i, id := range r.src {
		r.sends[i] = t.locals.Sends(id)
	}
	all := uint64(1)<<uint(n) - 1
	for to := 0; to < n; to++ {
		r.live[to], r.base[to] = 0, 0
		for i := 0; i < n; i++ {
			if i != to && r.sends[i][to] != 0 {
				r.live[to] |= 1 << uint(i)
			}
		}
		if silenceFailed {
			r.base[to] = x.failed
		}
		if generalOmission && x.failed&(1<<uint(to)) != 0 {
			r.base[to] = all
		}
		r.recv[to] = r.recv[to][:0]
	}
	r.out = make([]core.Succ, 0, size)
	r.oids = make([]uint32, 0, size)
	return r
}

// grow returns s resized to length n, reusing its array when it can.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Done returns the successors and ids the memo enumerated, and returns the
// memo to its table's pool.
func (r *RoundMemo) Done() ([]core.Succ, []uint32) {
	out, oids := r.out, r.oids
	r.out, r.oids, r.x = nil, nil, nil
	r.t.memos.Put(r)
	return out, oids
}

// Omit enumerates, labeled label, the successor in which process j's
// messages to the processes in omitTo are lost (omitTo == 0 is the
// failure-free round). j is recorded as failed if the memo records
// failures and omitTo is non-empty.
func (r *RoundMemo) Omit(label string, j int, omitTo uint64) {
	failed, from := r.x.failed, uint64(0)
	if omitTo != 0 {
		from = 1 << uint(j)
		r.omit[j] = omitTo
		if r.record {
			failed |= from
		}
	}
	r.emit(label, from, failed)
}

// omitMany enumerates the successor in which every listed process omits to
// its prefix set [K] at once; each is recorded as failed if the memo
// records failures. A process listed twice omits per its last entry.
func (r *RoundMemo) omitMany(label string, oms []Omission) {
	failed, from := r.x.failed, uint64(0)
	for _, om := range oms {
		from |= 1 << uint(om.J)
		r.omit[om.J] = OmitMask(om.K)
	}
	if r.record {
		failed |= from
	}
	r.emit(label, from, failed)
}

// emit resolves the successor with failed set failed in which each process
// i in from loses its messages to the receivers in omit[i], probes its key,
// and builds it on a miss.
func (r *RoundMemo) emit(label string, from, failed uint64) {
	for to := range r.ids {
		lost := r.base[to]
		for f := from; f != 0; f &= f - 1 {
			i := bits.TrailingZeros64(f)
			if r.omit[i]&(1<<uint(to)) != 0 {
				lost |= 1 << uint(i)
			}
		}
		r.ids[to] = r.deliver(to, lost&r.live[to])
	}
	id, st, ok := r.probe(failed)
	if !ok {
		id, st = r.p.Intern(r.key, r.build(failed))
	}
	r.out = append(r.out, core.Succ{Action: label, State: st})
	r.oids = append(r.oids, id)
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
// of the senders in lost (a subset of live[to]): from the memo's own list,
// else from the table's model-wide Deliver memo, else by running Deliver.
func (r *RoundMemo) deliver(to int, lost uint64) uint32 {
	for _, d := range r.recv[to] {
		if d.lost == lost {
			return d.id
		}
	}
	got := r.live[to] &^ lost
	for i := range r.in {
		r.in[i] = 0
		if got&(1<<uint(i)) != 0 {
			r.in[i] = r.sends[i][to]
		}
	}
	r.buf = deliverKey(r.buf[:0], r.src[to], r.in)
	id, ok := r.t.deliver.Get(r.buf)
	if !ok {
		id = r.t.deliverSlow(r.buf, r.src[to], r.in, r.strs)
	}
	r.recv[to] = append(r.recv[to], delivery{lost: lost, id: id})
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
