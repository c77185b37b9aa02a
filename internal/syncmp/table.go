package syncmp

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/proto"
)

// Table is a synchronous model's local-state table: a core.LocalTable,
// which gives every canonical local-state string and message a dense id
// and memoizes Decide and Send once per local id, plus the model-wide
// Deliver memo, which runs Deliver once per (receiver local id, inbox)
// across the whole model, whatever source state the inbox arises in. The
// memo names an inbox by its message ids, one per sender (deliverKey), or,
// for a protocol that declares proto.SetInbox, by the set of its distinct
// non-empty message ids (deliverSetKey), so that inboxes differing only in
// who sent what share one call. That is legal because the protocol's steps
// are pure functions of their arguments (the proto.SyncProtocol contract,
// checked with the declaration by proto.ValidateSync). A RoundMemo asks
// the memo at most once per source state, receiver and set of sender
// classes heard; under a proto.SetInbox protocol the senders of one
// message id form one class, so losing a message that another sender
// repeats leaves the receiver's id as it was, with no lookup at all.
//
// Ids never leave the process: states keep their canonical strings, and
// Key is built from those. The table is append-only and safe for
// concurrent use: a lookup takes no lock, an insert locks one core.Index
// shard, and reading an id's entry (core.Slots) takes no lock.
type Table struct {
	p      proto.SyncProtocol
	locals *core.LocalTable
	// deliver maps a deliverKey, or a deliverSetKey when set, to the
	// receiver's next local id.
	deliver *core.Index
	set     bool
	memos   sync.Pool
	// envs files the environment key of a state under its cache key's
	// environment prefix (appendStateKey with no ids: round, and failed set
	// when tracked).
	envs core.Records[string]
	// resolved, listMisses and runs sum what the round memos did: receivers
	// resolved, resolutions their own lists could not answer, and Deliver
	// runs. Each memo adds its counts once, in Done.
	resolved, listMisses, runs atomic.Uint64
}

// NewTable returns an empty table for protocol p on n processes. Its
// Deliver index is sized to what it holds on the paper's models under
// per-sender keys: thousands of distinct inboxes (full information grows
// it, and the shards then grow with it). Set keys need a few dozen.
func NewTable(p proto.SyncProtocol, n int) *Table {
	_, set := p.(proto.SetInbox)
	t := &Table{p: p, locals: core.NewLocalTable(p, n), deliver: core.NewIndex(3), set: set}
	t.envs.Init(0)
	return t
}

// deliverKey appends the model-wide Deliver memo key: the receiver's local
// id followed by its inbox's message ids.
//
//lint:hotpath
func deliverKey(dst []byte, recv uint32, in []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(recv))
	for _, m := range in {
		dst = binary.AppendUvarint(dst, uint64(m))
	}
	return dst
}

// deliverSetKey appends the Deliver memo key of a proto.SetInbox protocol:
// the receiver's local id followed by its inbox's distinct non-zero message
// ids in increasing order. Equal strings have equal ids, so the key names
// the inbox's set of non-empty messages. set is scratch for the sorted
// ids, at least as long as in.
//
//lint:hotpath
func deliverSetKey(dst []byte, recv uint32, in, set []uint32) []byte {
	k := 0
	for _, m := range in {
		if m == 0 {
			continue
		}
		i := k
		for i > 0 && set[i-1] > m {
			i--
		}
		if i > 0 && set[i-1] == m {
			continue
		}
		copy(set[i+1:k+1], set[i:k])
		set[i] = m
		k++
	}
	dst = binary.AppendUvarint(dst, uint64(recv))
	for _, m := range set[:k] {
		dst = binary.AppendUvarint(dst, uint64(m))
	}
	return dst
}

// deliverSlow runs Deliver for a memo key the table has not seen: in holds
// the inbox's message ids and strs is scratch for their strings. It
// returns the receiver's next local id.
func (t *Table) deliverSlow(key []byte, recv uint32, in []uint32, strs []string) uint32 {
	for i, m := range in {
		strs[i] = t.locals.Message(m)
	}
	next := t.locals.LocalID(t.p.Deliver(t.locals.Local(recv), strs))
	return t.deliver.Intern(key, func() uint32 { return next })
}

// envKey returns the environment key of a state in round round with
// failed set failed, rendered once per model; buf is scratch for its
// index key.
func (t *Table) envKey(buf []byte, round int, failed uint64, trackEnv bool) string {
	key := appendStateKey(buf, round, failed, trackEnv, nil)
	id, ok := t.envs.Get(key)
	if !ok {
		env := envKeyOf(round, failed, trackEnv)
		id = t.envs.Add(key, func(uint32) string { return env })
	}
	return t.envs.At(id)
}

// Cache key tags: the first byte of a synchronous state's cache key says
// whether the environment tracks the failed set.
const (
	tagMobile  = 0
	tagTracked = 1
	tagOther   = 2 // not a synchronous state: its canonical key follows
)

// appendStateKey appends a synchronous state's cache key: the round, the
// failed set when the environment tracks it, and the local ids.
//
//lint:hotpath
func appendStateKey(dst []byte, round int, failed uint64, trackEnv bool, ids []uint32) []byte {
	if trackEnv {
		dst = append(dst, tagTracked)
		dst = binary.AppendUvarint(dst, uint64(round))
		dst = binary.AppendUvarint(dst, failed)
	} else {
		dst = append(dst, tagMobile)
		dst = binary.AppendUvarint(dst, uint64(round))
	}
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// owns reports whether x carries ids from t that name its local strings.
func (t *Table) owns(x *State) bool {
	if x.tab != t {
		return false
	}
	for i, id := range x.ids {
		if t.locals.Local(id) != x.locals[i] {
			return false
		}
	}
	return true
}

// AppendCacheKey appends x's cache key: its round, failed set and local
// ids. A state whose ids come from another table, or that has none, is
// keyed from its local strings, so it gets the key of the model's own
// equal state.
func (t *Table) AppendCacheKey(dst []byte, x core.State) []byte {
	s, ok := x.(*State)
	if !ok {
		return core.AppendKeyOf(x, append(dst, tagOther))
	}
	if t.owns(s) {
		return appendStateKey(dst, s.round, s.failed, s.trackEn, s.ids)
	}
	dst = appendStateKey(dst, s.round, s.failed, s.trackEn, nil)
	for _, l := range s.locals {
		dst = binary.AppendUvarint(dst, uint64(t.locals.LocalID(l)))
	}
	return dst
}

// idsOf appends the local ids of x's local states to dst.
func (t *Table) idsOf(dst []uint32, x *State) []uint32 {
	if t.owns(x) {
		return append(dst, x.ids...)
	}
	for _, l := range x.locals {
		dst = append(dst, t.locals.LocalID(l))
	}
	return dst
}

// NewState is the package-level NewState for a state whose local strings
// the table names: it carries their ids, and takes its locals and
// decisions from the table's entries.
func (t *Table) NewState(round int, locals []string, failed uint64, trackEnv bool, inputs []int) *State {
	n := len(locals)
	own := make([]string, n)
	decided := make([]int, n)
	ids := make([]uint32, n)
	for i, l := range locals {
		ids[i] = t.locals.LocalID(l)
		own[i], decided[i] = t.locals.Local(ids[i]), t.locals.Decided(ids[i])
	}
	return newState(round, own, decided, failed, trackEnv, inputs, t, ids)
}
