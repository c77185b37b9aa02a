package core

import (
	"encoding/binary"
	"hash/maphash"
	"sync/atomic"
)

// Stepper is the per-local-state half of a message-passing protocol, the
// part a LocalTable memoizes. proto.SyncProtocol and proto.MPProtocol
// both provide it.
type Stepper interface {
	Send(state string) []string
	Decide(state string) (int, bool)
}

// LocalTable is a message-passing model's local-state table. It gives
// every canonical local-state string a dense uint32 id, every message
// string a dense message id (0 is "no message", the empty string), and
// memoizes the protocol on them: Decide and Send (as message ids) once per
// local id across the whole model, whatever source state the local state
// arises in. That is legal because the protocol's steps are pure functions
// of their arguments (the proto.SyncProtocol and proto.MPProtocol
// contracts). The models keep their inbox memos (Deliver, Receive) beside
// it.
//
// Ids never leave the process: states keep their canonical strings. The
// table is append-only and safe for concurrent use: a string's lookup
// takes no lock, its insert locks one Index shard, and reading an id's
// entry (Slots) takes no lock.
type LocalTable struct {
	p      Stepper
	n      int
	locals strTab
	msgs   strTab
}

// NewLocalTable returns an empty table for protocol p on n processes. Its
// indexes are sized to what they hold on the paper's models: a few dozen
// local states and messages (full information grows both, and the shards
// then grow with them).
func NewLocalTable(p Stepper, n int) *LocalTable {
	t := &LocalTable{p: p, n: n, locals: newStrTab(p.Decide, 2), msgs: newStrTab(nil, 2)}
	t.msgs.id("")
	return t
}

// LocalID returns the id of local state s, interning it (and running
// Decide on it) on first sight.
func (t *LocalTable) LocalID(s string) uint32 { return t.locals.id(s) }

// Local returns the local state of id.
func (t *LocalTable) Local(id uint32) string { return t.locals.ents.At(id).s }

// Decided returns the decision of local id, Undecided if none.
func (t *LocalTable) Decided(id uint32) int { return t.locals.ents.At(id).decided }

// MessageID returns the id of message s, interning it on first sight; the
// empty message is 0.
func (t *LocalTable) MessageID(s string) uint32 { return t.msgs.id(s) }

// Message returns the message of id.
func (t *LocalTable) Message(id uint32) string { return t.msgs.ents.At(id).s }

// Sends returns local id's Send vector as message ids, one per process
// (0 past the end of a short vector), running Send on the first request.
// The slice is shared: callers must not modify it.
func (t *LocalTable) Sends(id uint32) []uint32 {
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

// strTab interns strings as dense ids. It files each string under its
// 64-bit hash, so that its index keys stay 8 bytes however long a string
// grows (full-information views grow with every round); a string whose
// hash slot holds another string is filed by value in collide. Lookups
// take no lock; a new string locks one index shard.
type strTab struct {
	// decide, when set, runs on every new string (the local states).
	decide          func(string) (int, bool)
	seed            maphash.Seed
	byHash, collide *Index
	next            atomic.Uint32
	ents            Slots[localEntry]
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
func newStrTab(decide func(string) (int, bool), shardBits int) strTab {
	return strTab{decide: decide, seed: maphash.MakeSeed(), byHash: NewIndex(shardBits), collide: NewIndex(0)}
}

// id returns the id of s, interning it on first sight.
func (x *strTab) id(s string) uint32 {
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], maphash.String(x.seed, s))
	id, ok := x.byHash.Get(kb[:])
	if !ok {
		dec := x.decision(s)
		id = x.byHash.Intern(kb[:], func() uint32 { return x.add(s, dec) })
	}
	if x.ents.At(id).s == s {
		return id
	}
	dec := x.decision(s)
	return x.collide.Intern([]byte(s), func() uint32 { return x.add(s, dec) })
}

// decision runs Decide on a string about to be filed, before any index
// lock is taken.
func (x *strTab) decision(s string) int {
	if x.decide != nil {
		if v, ok := x.decide(s); ok {
			return v
		}
	}
	return Undecided
}

// add files s, with its decision, under the next id. It runs under an
// index shard mutex.
func (x *strTab) add(s string, decided int) uint32 {
	id := x.next.Add(1) - 1
	e := x.ents.Grow(id)
	e.s, e.decided = s, decided
	return id
}
