package syncmp

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/proto"
)

// Table is a synchronous model's local-state table. It gives every
// canonical local-state string a dense uint32 id, every message string a
// dense message id (0 is "no message"), and memoizes the protocol on them:
// Decide and Send (as message ids) once per local id, and Deliver once per
// (receiver local id, inbox message ids) across the whole model, whatever
// source state the inbox arises in. That is legal because the protocol's
// steps are pure functions of their arguments (the proto.SyncProtocol
// contract, checked by proto.ValidateSync).
//
// Ids never leave the process: states keep their canonical strings, and
// Key is built from those. The table is append-only and safe for
// concurrent use; its lookups take no lock (core.Index snapshots and
// core.Slots), and its inserts lock one shard.
type Table struct {
	p      proto.SyncProtocol
	n      int
	locals strTab
	msgs   strTab
	// deliver maps a deliverKey to the receiver's next local id.
	deliver *core.Index
	memos   sync.Pool
}

// strTab interns strings as dense ids. It files each string under its
// 64-bit hash, so that republishing a snapshot copies 8-byte keys rather
// than the strings, which grow with every round under full information; a
// string whose hash slot holds another string is filed by value in
// collide.
type strTab struct {
	// decide, when set, runs on every new string (the local states).
	decide          proto.Decider
	seed            maphash.Seed
	byHash, collide *core.Index
	next            atomic.Uint32
	ents            core.Slots[localEntry]
}

// localEntry is one interned string's memo. For a local state: its
// decision, and its Send vector as message ids (filled on first use).
type localEntry struct {
	s       string
	decided int
	sends   atomic.Pointer[[]uint32]
}

// newStrTab returns an empty string table whose hash index has
// 1<<shardBits shards; a collision index needs only one.
func newStrTab(decide proto.Decider, shardBits int) strTab {
	return strTab{decide: decide, seed: maphash.MakeSeed(), byHash: core.NewIndex(shardBits), collide: core.NewIndex(0)}
}

// id returns the id of s, interning it on first sight.
func (x *strTab) id(s string) uint32 {
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], maphash.String(x.seed, s))
	id, ok := x.byHash.Get(kb[:])
	if !ok {
		dec := x.decision(s)
		id = x.byHash.Intern(kb[:], func(string) uint32 { return x.add(s, dec) })
	}
	if x.ents.At(id).s == s {
		return id
	}
	dec := x.decision(s)
	return x.collide.Intern([]byte(s), func(string) uint32 { return x.add(s, dec) })
}

// decision runs Decide on a string about to be filed, before any index
// lock is taken.
func (x *strTab) decision(s string) int {
	if x.decide != nil {
		if v, ok := x.decide.Decide(s); ok {
			return v
		}
	}
	return core.Undecided
}

// add files s, with its decision, under the next id. It runs under an
// index shard mutex.
func (x *strTab) add(s string, decided int) uint32 {
	id := x.next.Add(1) - 1
	e := x.ents.Grow(id)
	e.s, e.decided = s, decided
	return id
}

// NewTable returns an empty table for protocol p on n processes. Its
// indexes are sized to what they hold on the paper's models: a few dozen
// local states and messages, and thousands of distinct inboxes (full
// information grows all three, and the shards then grow with it).
func NewTable(p proto.SyncProtocol, n int) *Table {
	t := &Table{p: p, n: n, locals: newStrTab(p, 2), msgs: newStrTab(nil, 2), deliver: core.NewIndex(3)}
	t.msgs.id("")
	return t
}

// local returns the id of local state s, interning it (and running Decide
// on it) on first sight.
func (t *Table) local(s string) uint32 { return t.locals.id(s) }

// str returns the string of local id id.
func (t *Table) str(id uint32) string { return t.locals.ents.At(id).s }

// sends returns local id's Send vector as message ids, one per process,
// running Send on the first request. The slice is shared: callers must
// not modify it.
func (t *Table) sends(id uint32) []uint32 {
	e := t.locals.ents.At(id)
	if v := e.sends.Load(); v != nil {
		return *v
	}
	out := t.p.Send(e.s)
	v := make([]uint32, t.n)
	for j := range v {
		switch {
		case j >= len(out):
		case j > 0 && out[j] == out[j-1]:
			v[j] = v[j-1] // a broadcast: hash its message once
		default:
			v[j] = t.msgs.id(out[j])
		}
	}
	// A racing first request stores an equal vector.
	e.sends.Store(&v)
	return v
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

// deliverSlow runs Deliver for a memo key the table has not seen: in holds
// the inbox's message ids and strs is scratch for their strings. It
// returns the receiver's next local id.
func (t *Table) deliverSlow(key []byte, recv uint32, in []uint32, strs []string) uint32 {
	for i, m := range in {
		strs[i] = t.msgs.ents.At(m).s
	}
	next := t.local(t.p.Deliver(t.str(recv), strs))
	return t.deliver.Intern(key, func(string) uint32 { return next })
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
		if t.str(id) != x.locals[i] {
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
		dst = binary.AppendUvarint(dst, uint64(t.local(l)))
	}
	return dst
}

// idsOf appends the local ids of x's local states to dst.
func (t *Table) idsOf(dst []uint32, x *State) []uint32 {
	if t.owns(x) {
		return append(dst, x.ids...)
	}
	for _, l := range x.locals {
		dst = append(dst, t.local(l))
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
		ids[i] = t.local(l)
		e := t.locals.ents.At(ids[i])
		own[i], decided[i] = e.s, e.decided
	}
	return newState(round, own, decided, failed, trackEnv, inputs, t, ids)
}

// Apply is the one-action round: it applies the environment action in
// which process j's messages to the processes in omitTo are lost, under
// the failure rule of Memo's flags, building the successor through the
// table's memos without a cache.
func (t *Table) Apply(x *State, j int, omitTo uint64, record, silenceFailed, generalOmission bool) *State {
	r := t.Memo(x, core.Prober{}, 1, record, silenceFailed, generalOmission)
	r.Omit("", j, omitTo)
	succs, _ := r.Done()
	return succs[0].State.(*State)
}
