package shmem

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/proto"
)

// table is a shared-memory model's id table: a core.LocalTable for local
// states and written values (WriteValue is its one-message Send), the
// environments by their memory's value ids or their round, and the Observe
// memo, which the protocol's purity makes legal (the proto.SMProtocol
// contract). It is append-only and safe for concurrent use.
type table struct {
	p        proto.SMProtocol
	n        int
	iterated bool
	locals   *core.LocalTable
	observe  *core.Index // (local id, memory value ids) -> next local id
	envs     core.Records[*env]
	memos    sync.Pool
}

// writer is a protocol as a core.Stepper whose one message is its write.
type writer struct{ proto.SMProtocol }

func (w writer) Send(s string) []string { return []string{w.WriteValue(s)} }

// newTable returns an empty table for protocol p on n processes.
func newTable(p proto.SMProtocol, n int, iterated bool) *table {
	t := &table{p: p, n: n, iterated: iterated, locals: core.NewLocalTable(writer{p}, 1), observe: core.NewIndex(3)}
	t.envs.Init(1)
	t.memos.New = func() any { return &memo{t: t} }
	return t
}

// environment returns the environment record of memory vals, or of round
// round when iterated, filing it on first sight; buf is scratch.
func (t *table) environment(round int, vals []uint32, buf []byte) (*env, []byte) {
	buf = buf[:0]
	if t.iterated {
		buf = binary.AppendUvarint(buf, uint64(round))
	}
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	if id, ok := t.envs.Get(buf); ok {
		return t.envs.At(id), buf
	}
	e := &env{round: round, vals: make([]uint32, t.n)}
	if !t.iterated {
		e.mem = make([]string, t.n)
		for j, v := range vals {
			e.mem[j], e.vals[j] = t.locals.Message(v), v
		}
	}
	e.key = envKey(round, e.mem)
	id := t.envs.Add(buf, func(id uint32) *env { e.tab, e.id = t, id; return e })
	return t.envs.At(id), buf
}

// own returns x's environment record in t and appends x's local ids to
// lids: x's own when t built x, else interned from its strings.
func (t *table) own(x *State, lids []uint32) (*env, []uint32) {
	if x.tab == t {
		return x.env, append(lids, x.ids...)
	}
	for _, l := range x.locals {
		lids = append(lids, t.locals.LocalID(l))
	}
	var vals []uint32
	for _, s := range x.env.mem {
		vals = append(vals, t.locals.MessageID(s))
	}
	e, _ := t.environment(x.env.round, vals, nil)
	return e, lids
}

// Cache key tags: ids follow, or another kind's canonical key.
const (
	tagState = 0
	tagOther = 1
)

// appendStateKey appends a cache key: environment id, then local ids.
//
//lint:hotpath
func appendStateKey(dst []byte, env uint32, ids []uint32) []byte {
	dst = binary.AppendUvarint(append(dst, tagState), uint64(env))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// AppendCacheKey implements core.KeyedSuccessor: x's environment id and
// local ids. A state the model's table did not build is keyed from its
// strings, so it gets the key of the model's own equal state.
func (l *Layering) AppendCacheKey(dst []byte, x core.State) []byte {
	t := l.tab
	s, ok := x.(*State)
	if !ok || (s.env.mem == nil) != t.iterated {
		return core.AppendKeyOf(x, append(dst, tagOther))
	}
	if s.tab == t {
		return appendStateKey(dst, s.env.id, s.ids)
	}
	e, ids := t.own(s, nil)
	return appendStateKey(dst, e.id, ids)
}

// memo is one layer from a fixed source state, shared by every action on
// it. The memory a scan sees depends only on which processes wrote before
// it, so the memo resolves each (reader, writers seen) pair once to a local
// id and each set of writers once to an environment, then probes each
// successor's key and builds the State only on a miss. It belongs to one
// enumeration and comes from the table's pool.
type memo struct {
	t *table
	p core.Prober
	x *State
	// env and lids are the source's, as the table filed them, and writes
	// their write value ids (0: none); recv[i] and envs hold what reader i
	// and the environment resolved to, per set of writers.
	env          *env
	lids, writes []uint32
	recv         [][]resolved[uint32]
	envs         []resolved[*env]
	ids, mem     []uint32
	view         []string
	key, buf     []byte
}

// resolved is what a memo resolved for one set of writers.
type resolved[T any] struct {
	writers uint64
	v       T
}

// memo starts the layer from x, resolving successor keys through p.
func (t *table) memo(x *State, p core.Prober) *memo {
	r, n := t.memos.Get().(*memo), t.n
	r.p, r.x = p, x
	r.env, r.lids = t.own(x, r.lids[:0])
	r.writes, r.recv = grow(r.writes, n), grow(r.recv, n)
	r.ids, r.mem, r.view = grow(r.ids, n), grow(r.mem, n), grow(r.view, n)
	r.envs = r.envs[:0]
	for i, lid := range r.lids {
		r.writes[i] = t.locals.Sends(lid)[0]
		r.recv[i] = r.recv[i][:0]
	}
	return r
}

// grow returns s resized to length n, reusing its array when it can.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// done returns the memo to its table's pool.
func (r *memo) done() {
	r.p, r.x, r.env = core.Prober{}, nil, nil
	r.t.memos.Put(r)
}

// next returns the successor under action a and its id.
func (r *memo) next(a *Action) (uint32, core.State) {
	copy(r.ids, r.lids)
	var wrote uint64
	for _, s := range a.Steps {
		wrote |= s.Write
		for i := range r.ids {
			if s.Scan&(1<<uint(i)) != 0 {
				r.ids[i] = r.observe(i, wrote)
			}
		}
	}
	e := r.environment(wrote)
	r.key = appendStateKey(r.key[:0], e.id, r.ids)
	id, st, ok := r.p.Probe(r.key)
	if !ok {
		id, st = r.p.Intern(r.key, r.build(e))
	}
	return id, st
}

// build assembles the successor with environment e and local ids r.ids.
func (r *memo) build(e *env) *State {
	n := len(r.ids)
	locals, decided := make([]string, n), make([]int, n)
	for i, id := range r.ids {
		locals[i], decided[i] = r.t.locals.Local(id), r.t.locals.Decided(id)
	}
	s, buf := newState(e, locals, decided, r.x.inputs, r.t, slices.Clone(r.ids), r.buf)
	r.buf = buf
	return s
}

// memory sets r.mem to the memory after the processes in wrote wrote (an
// iterated model's environment holds an empty one), and returns it.
func (r *memo) memory(wrote uint64) []uint32 {
	for j := range r.mem {
		r.mem[j] = r.env.vals[j]
		if wrote&(1<<uint(j)) != 0 && r.writes[j] != 0 {
			r.mem[j] = r.writes[j]
		}
	}
	return r.mem
}

// observe returns reader i's next local id after a scan that sees the
// writes of the processes in seen.
func (r *memo) observe(i int, seen uint64) uint32 {
	for _, o := range r.recv[i] {
		if o.writers == seen {
			return o.v
		}
	}
	mem := r.memory(seen)
	buf := binary.AppendUvarint(r.buf[:0], uint64(r.lids[i]))
	for _, v := range mem {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	r.buf = buf
	id, ok := r.t.observe.Get(buf)
	if !ok {
		for j, v := range mem {
			r.view[j] = r.t.locals.Message(v)
		}
		next := r.t.locals.LocalID(r.t.p.Observe(r.t.locals.Local(r.lids[i]), r.view))
		id = r.t.observe.Intern(buf, func() uint32 { return next })
	}
	r.recv[i] = append(r.recv[i], resolved[uint32]{seen, id})
	return id
}

// environment returns the environment after the processes in wrote wrote;
// an iterated model's is the next round's, whoever wrote.
func (r *memo) environment(wrote uint64) *env {
	for _, w := range r.envs {
		if w.writers == wrote {
			return w.v
		}
	}
	var e *env
	if r.t.iterated {
		e, r.buf = r.t.environment(r.env.round+1, nil, r.buf)
	} else {
		e, r.buf = r.t.environment(0, r.memory(wrote), r.buf)
	}
	r.envs = append(r.envs, resolved[*env]{wrote, e})
	return e
}
