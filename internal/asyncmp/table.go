package asyncmp

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/proto"
)

// table is an asynchronous model's id table. Its core.LocalTable gives
// every protocol state and message a dense id and memoizes Decide and Send
// once per local id; beside it the table files, each under a dense id,
// every channel history (keyed by its prefix's history id and its last
// message id), every environment (keyed by its n² history ids) and every
// process record (keyed by its local id and consumption counters), and it
// memoizes Receive once per (local id, inbox message ids) across the whole
// model, whatever source state and action the inbox arises in. That is
// legal because the protocol's steps are pure functions of their arguments
// and Receive keeps nothing of its inbox (the proto.MPProtocol contract,
// checked by proto.ValidateMP).
//
// The records are the ones states point to, built once per id. Ids never
// leave the process: Key is still the canonical string. The table is
// append-only and safe for concurrent use, like its core.LocalTable: a
// lookup takes no lock, an insert locks one core.Index shard, and reading
// a record (core.Slots) takes no lock.
type table struct {
	p      proto.MPProtocol
	n      int
	locals *core.LocalTable
	// receive maps a receive key (local id, then per sender the inbox's
	// message count and ids) to the receiver's next local id.
	receive *core.Index
	hists   core.Records[history]
	envs    core.Records[*env]
	procs   core.Records[*proc]
	memos   sync.Pool
	// built counts the States the phase memos assembled.
	built atomic.Int64
}

// history is one channel history: its messages, oldest first, as strings
// (capacity equal to length, so extending copies) and as message ids, and
// its Join encoding.
type history struct {
	msgs []string
	ids  []uint32
	enc  string
}

// newTable returns an empty table for protocol p on n processes, with
// the empty history filed as history 0. Its indexes are sized to what
// they hold on the paper's models: a few dozen histories, and hundreds to
// a few thousand environments, process records and inboxes.
func newTable(p proto.MPProtocol, n int) *table {
	t := &table{p: p, n: n, locals: core.NewLocalTable(p, n), receive: core.NewIndex(2)}
	t.hists.Init(1)
	t.envs.Init(3)
	t.procs.Init(2)
	t.hists.Add(nil, func(uint32) history { return history{} })
	return t
}

// extend returns the id of history h followed by message m; buf is
// scratch, returned for reuse.
func (t *table) extend(h, m uint32, buf []byte) (uint32, []byte) {
	buf = binary.AppendUvarint(binary.AppendUvarint(buf[:0], uint64(h)), uint64(m))
	if id, ok := t.hists.Get(buf); ok {
		return id, buf
	}
	prev, s := t.hists.At(h), t.locals.Message(m)
	k := len(prev.ids)
	next := history{msgs: make([]string, k+1), ids: make([]uint32, k+1)}
	copy(next.msgs, prev.msgs)
	copy(next.ids, prev.ids)
	next.msgs[k], next.ids[k] = s, m
	next.enc = string(proto.AppendJoin([]byte(prev.enc), s))
	return t.hists.Add(buf, func(uint32) history { return next }), buf
}

// environment returns the environment record whose channels hold the
// histories hists, building it on first sight; buf is scratch.
func (t *table) environment(hists []uint32, buf []byte) (*env, []byte) {
	buf = buf[:0]
	for _, h := range hists {
		buf = binary.AppendUvarint(buf, uint64(h))
	}
	if id, ok := t.envs.Get(buf); ok {
		return t.envs.At(id), buf
	}
	e := &env{hist: make([][]string, len(hists)), hists: append([]uint32(nil), hists...)}
	var key []byte
	for c, h := range hists {
		rec := t.hists.At(h)
		e.hist[c] = rec.msgs
		key = proto.AppendJoin(key, rec.enc)
	}
	e.key = string(key)
	id := t.envs.Add(buf, func(id uint32) *env { e.tab, e.id = t, id; return e })
	return t.envs.At(id), buf
}

// process returns the process record with local id lid and consumption
// counters consumed, building it on first sight; buf is scratch.
func (t *table) process(lid uint32, consumed []int, buf []byte) (*proc, []byte) {
	buf = binary.AppendUvarint(buf[:0], uint64(lid))
	for _, c := range consumed {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	if id, ok := t.procs.Get(buf); ok {
		return t.procs.At(id), buf
	}
	local := t.locals.Local(lid)
	own := append([]int(nil), consumed...)
	r := &proc{local: local, consumed: own, key: procKey(local, own), decided: t.locals.Decided(lid), lid: lid}
	id := t.procs.Add(buf, func(id uint32) *proc { r.tab, r.id = t, id; return r })
	return t.procs.At(id), buf
}

// ownEnv returns the table's record equal to e: e itself when the table
// filed it, else the record interned from e's histories.
func (t *table) ownEnv(e *env) *env {
	if e.tab == t {
		return e
	}
	hists := make([]uint32, len(e.hist))
	var buf []byte
	for c, h := range e.hist {
		for _, s := range h {
			hists[c], buf = t.extend(hists[c], t.locals.MessageID(s), buf)
		}
	}
	own, _ := t.environment(hists, buf)
	return own
}

// ownProc returns the table's record equal to r: r itself when the table
// filed it, else the record interned from r's strings.
func (t *table) ownProc(r *proc) *proc {
	if r.tab == t {
		return r
	}
	own, _ := t.process(t.locals.LocalID(r.local), r.consumed, nil)
	return own
}

// initial returns the initial state for inputs, built from the table's
// records.
func (t *table) initial(inputs []int) *State {
	e, _ := t.environment(make([]uint32, t.n*t.n), nil)
	procs := make([]*proc, t.n)
	zero := make([]int, t.n)
	for i := range procs {
		procs[i], _ = t.process(t.locals.LocalID(t.p.Init(t.n, i, inputs[i])), zero, nil)
	}
	s, _ := assemble(e, procs, append([]int(nil), inputs...), nil)
	return s
}

// Cache key tags: the first byte of a cache key says whether an
// asynchronous state's ids follow.
const (
	tagState = 0
	tagOther = 1 // not an asynchronous state: its canonical key follows
)

// appendStateKey appends an asynchronous state's cache key: its
// environment id and its process records' ids.
//
//lint:hotpath
func appendStateKey(dst []byte, env uint32, procs []uint32) []byte {
	dst = binary.AppendUvarint(append(dst, tagState), uint64(env))
	for _, id := range procs {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// AppendCacheKey appends x's cache key: its environment id and process
// record ids. A record the table did not file (another model's, or one
// built from scratch) is keyed from its strings, so a state gets the key
// of the model's own equal state.
func (t *table) AppendCacheKey(dst []byte, x core.State) []byte {
	s, ok := x.(*State)
	if !ok {
		return core.AppendKeyOf(x, append(dst, tagOther))
	}
	dst = appendStateKey(dst, t.ownEnv(s.env).id, nil)
	for _, r := range s.procs {
		dst = binary.AppendUvarint(dst, uint64(t.ownProc(r).id))
	}
	return dst
}
