package asyncmp

import (
	"encoding/binary"
	"strconv"

	"repro/internal/core"
)

// action is a layer action in phase form: the set of processes that take
// a local phase, and for each of them the set of processes whose fresh
// message (sent in this layer) it receives — those that sent before its
// receive. Every action of both layerings has this form, because each
// process takes at most one phase per action and a phase's messages are
// computed from the pre-phase state.
type action struct {
	label  string
	phased uint64
	fresh  []uint64
}

// sequential is the action in which the listed processes take their
// phases one after another: each receives the fresh messages of those
// listed before it. The order must list distinct processes.
func sequential(n int, order []int) action {
	a := action{fresh: make([]uint64, n)}
	for _, i := range order {
		if a.phased&(1<<uint(i)) != 0 {
			panic("asyncmp: process " + strconv.Itoa(i) + " listed twice in one action")
		}
		a.fresh[i] = a.phased
		a.phased |= 1 << uint(i)
	}
	return a
}

// withPair is sequential(order) with order[k] and order[k+1] run as a
// concurrent block: both send before either receives, so order[k] also
// receives order[k+1]'s fresh message.
func withPair(n int, order []int, k int) action {
	a := sequential(n, order)
	a.fresh[order[k]] |= 1 << uint(order[k+1])
	return a
}

// synchronicRound is the synchronic action (j,k): every process takes a
// phase, and the proper processes below k receive before j sends, so they
// miss j's fresh message.
func synchronicRound(n, j, k int) action {
	all := uint64(1)<<uint(n) - 1
	a := action{phased: all, fresh: make([]uint64, n)}
	for i := range a.fresh {
		a.fresh[i] = all
		if i != j && i < k {
			a.fresh[i] = all &^ (1 << uint(j))
		}
	}
	return a
}

// absentRound is the synchronic action (j,A): the proper processes take
// their phases concurrently and j takes none.
func absentRound(n, j int) action {
	proper := (uint64(1)<<uint(n) - 1) &^ (1 << uint(j))
	a := action{phased: proper, fresh: make([]uint64, n)}
	for i := range a.fresh {
		if i != j {
			a.fresh[i] = proper
		}
	}
	return a
}

// phaseMemo is one layer of local phases from a fixed source state, shared
// by every action applied to it. A phase sends from the source state, so
// the layer's messages are common to all its actions, and a receiver's
// inbox is its backlog plus the fresh messages of the senders in its fresh
// set. The memo resolves each (receiver, fresh senders with a non-empty
// message to it) pair once to the receiver's next process record id, and
// each set of processes that took a phase once to the next environment
// id, through the table's model-wide records and Receive memo. It then
// writes each successor's cache key as (environment id, process record
// ids), probes the cache, and only on a miss builds the State, its slice
// of records and its canonical key. Successors share the table's immutable
// records with each other and with the source.
//
// A memo belongs to one enumeration: it is not safe for concurrent use.
// table.memo hands one out and done returns it to the table's pool.
type phaseMemo struct {
	t *table
	p core.Prober
	x *State
	// env and procs are the source's records as the table filed them, and
	// sends the processes' Send vectors as message ids (table-owned,
	// shared).
	env   *env
	procs []*proc
	sends [][]uint32
	// live[to] is the set of senders other than to whose message to to is
	// non-empty, so a fresh set only matters within it.
	live []uint64
	// recv[to] holds the record ids resolved for receiver to, envs the
	// environments resolved per phased set.
	recv [][]delivery
	envs []phasedEnv
	// ids holds the successor's process record ids being assembled, hists
	// an environment's history ids, consumed a record's counters; in and
	// spill hold the inbox handed to Receive on a memo miss.
	ids      []uint32
	hists    []uint32
	consumed []int
	in       [][]string
	spill    []string
	key      []byte
	buf      []byte
}

// delivery is one receiver's next record id given the set of fresh
// senders it receives from.
type delivery struct {
	fresh uint64
	id    uint32
}

// phasedEnv is the environment after the processes in phased sent.
type phasedEnv struct {
	phased uint64
	e      *env
}

// memo starts the layer from x, resolving successor keys through p.
func (t *table) memo(x *State, p core.Prober) *phaseMemo {
	r, _ := t.memos.Get().(*phaseMemo)
	if r == nil {
		r = &phaseMemo{t: t}
	}
	n := t.n
	r.p, r.x = p, x
	r.env = t.ownEnv(x.env)
	r.procs = grow(r.procs, n)
	r.sends, r.live, r.recv = grow(r.sends, n), grow(r.live, n), grow(r.recv, n)
	r.ids, r.hists, r.consumed = grow(r.ids, n), grow(r.hists, n*n), grow(r.consumed, n)
	r.in = grow(r.in, n)
	r.envs = r.envs[:0]
	for i, rec := range x.procs {
		r.procs[i] = t.ownProc(rec)
		r.sends[i] = t.locals.Sends(r.procs[i].lid)
	}
	for to := range r.live {
		r.live[to] = 0
		for i, out := range r.sends {
			if i != to && out[to] != 0 {
				r.live[to] |= 1 << uint(i)
			}
		}
		r.recv[to] = r.recv[to][:0]
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
func (r *phaseMemo) done() {
	r.p, r.x, r.env = core.Prober{}, nil, nil
	r.t.memos.Put(r)
}

// next returns the successor of the memo's source state under action a,
// and the id it is filed under: it resolves the successor's ids, probes
// its key, and builds it on a miss.
func (r *phaseMemo) next(a *action) (uint32, core.State) {
	for i := range r.ids {
		if a.phased&(1<<uint(i)) == 0 {
			r.ids[i] = r.procs[i].id
			continue
		}
		r.ids[i] = r.receive(i, a.fresh[i]&r.live[i])
	}
	e := r.environment(a.phased)
	id, st, ok := r.probe(e)
	if !ok {
		id, st = r.p.Intern(r.key, r.build(e))
	}
	return id, st
}

// probe writes the key of the successor with environment e and process
// record ids r.ids and looks it up: the path every duplicate successor
// ends on.
//
//lint:hotpath
func (r *phaseMemo) probe(e *env) (uint32, core.State, bool) {
	r.key = appendStateKey(r.key[:0], e.id, r.ids)
	return r.p.Probe(r.key)
}

// build assembles the successor with environment e and process record ids
// r.ids: its record slice and canonical key, built once.
func (r *phaseMemo) build(e *env) *State {
	procs := make([]*proc, len(r.ids))
	for i, id := range r.ids {
		procs[i] = r.t.procs.at(id)
	}
	s, buf := assemble(e, procs, r.x.inputs, r.buf)
	r.buf = buf
	r.t.built.Add(1)
	return s
}

// receive returns receiver to's record id after it receives its backlog
// and the fresh messages of the senders in fresh: from the memo's own
// list, else through the table's model-wide Receive memo and records.
func (r *phaseMemo) receive(to int, fresh uint64) uint32 {
	for _, d := range r.recv[to] {
		if d.fresh == fresh {
			return d.id
		}
	}
	n, src := r.t.n, r.procs[to]
	buf := binary.AppendUvarint(r.buf[:0], uint64(src.lid))
	for j := range r.consumed {
		h := r.t.hists.at(r.env.hists[j*n+to])
		backlog := h.ids[src.consumed[j]:]
		got := fresh&(1<<uint(j)) != 0
		r.consumed[j] = len(h.ids)
		if got {
			r.consumed[j]++
		}
		buf = binary.AppendUvarint(buf, uint64(r.consumed[j]-src.consumed[j]))
		for _, m := range backlog {
			buf = binary.AppendUvarint(buf, uint64(m))
		}
		if got {
			buf = binary.AppendUvarint(buf, uint64(r.sends[j][to]))
		}
	}
	lid, ok := r.t.receive.Get(buf)
	if !ok {
		lid = r.receiveSlow(buf, to, fresh)
	}
	rec, buf := r.t.process(lid, r.consumed, buf)
	r.buf = buf
	r.recv[to] = append(r.recv[to], delivery{fresh: fresh, id: rec.id})
	return rec.id
}

// receiveSlow runs Receive for a memo key the table has not seen and
// returns the receiver's next local id. The inbox it hands Receive holds,
// per sender j, a channel history's backlog, or a window of spill holding
// the backlog plus j's fresh message.
func (r *phaseMemo) receiveSlow(key []byte, to int, fresh uint64) uint32 {
	n, src := r.t.n, r.procs[to]
	spill := r.spill[:0]
	for j := range r.in {
		backlog := r.env.hist[j*n+to][src.consumed[j]:]
		if fresh&(1<<uint(j)) == 0 {
			r.in[j] = backlog
			continue
		}
		start := len(spill)
		spill = append(append(spill, backlog...), r.t.locals.Message(r.sends[j][to]))
		r.in[j] = spill[start:len(spill):len(spill)]
	}
	r.spill = spill
	next := r.t.locals.LocalID(r.t.p.Receive(src.local, r.in))
	return r.t.receive.Intern(key, func() uint32 { return next })
}

// environment returns the environment after the processes in phased sent
// their messages: from the memo's own list, else through the table's
// model-wide histories and environments.
func (r *phaseMemo) environment(phased uint64) *env {
	for _, d := range r.envs {
		if d.phased == phased {
			return d.e
		}
	}
	n, buf := r.t.n, r.buf
	for c, h := range r.env.hists {
		from, to := c/n, c%n
		if phased&r.live[to]&(1<<uint(from)) != 0 {
			h, buf = r.t.extend(h, r.sends[from][to], buf)
		}
		r.hists[c] = h
	}
	e, buf := r.t.environment(r.hists, buf)
	r.buf = buf
	r.envs = append(r.envs, phasedEnv{phased: phased, e: e})
	return e
}
