package asyncmp

import (
	"strconv"

	"repro/internal/proto"
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
// set. The memo calls Send once per process, Receive (and Decide on the
// result) once per distinct (receiver, fresh senders with a non-empty
// message to it) pair, and builds one successor environment per set of
// processes that took a phase. Successors share these immutable records
// with each other and with the source: a successor costs its State, its
// process slice and its key. The memo relies on Send, Receive and Decide
// being pure and on Receive not retaining its inbox, whose buffers the
// memo reuses (the proto.MPProtocol contract, checked by proto.ValidateMP).
//
// A memo belongs to one enumeration: it is not safe for concurrent use and
// should be dropped once the source state's successors are built.
type phaseMemo struct {
	p     proto.MPProtocol
	x     *State
	sends [][]string
	// live[to] is the set of senders other than to whose message to to is
	// non-empty, so a fresh set only matters within it.
	live []uint64
	// encs[c] is Join(x.env.hist[c]...), a substring of x's environment
	// key: Join is a concatenation, so an extended history's encoding is
	// the old one followed by the new message's.
	encs []string
	// recs[to<<n|fresh] is receiver to's record after receiving its
	// backlog and the fresh messages of the senders in fresh ⊆ live[to];
	// envs[phased] is the environment after the processes in phased sent.
	recs []*proc
	envs []*env
	// in is the inbox handed to Receive: in[j] is a channel history's
	// backlog, a one-message window of j's send vector, or a window of
	// spill holding a backlog plus the fresh message. buf holds keys
	// while they are built.
	in    [][]string
	spill []string
	buf   []byte
}

// newPhaseMemo starts the layer from x under protocol p.
func newPhaseMemo(p proto.MPProtocol, x *State) *phaseMemo {
	n := len(x.procs)
	r := &phaseMemo{
		p:     p,
		x:     x,
		sends: make([][]string, n),
		live:  make([]uint64, n),
		recs:  make([]*proc, n<<uint(n)),
		envs:  make([]*env, 1<<uint(n)),
		in:    make([][]string, n),
	}
	r.encs, _ = proto.Split(x.env.key) // a Join encoding by construction
	for i, rec := range x.procs {
		r.sends[i] = p.Send(rec.local)
	}
	for to := range r.live {
		for i, out := range r.sends {
			if i != to && to < len(out) && out[to] != "" {
				r.live[to] |= 1 << uint(i)
			}
		}
	}
	return r
}

// next returns the successor of the memo's source state under action a.
func (r *phaseMemo) next(a *action) *State {
	procs := make([]*proc, len(r.x.procs))
	for i := range procs {
		if a.phased&(1<<uint(i)) == 0 {
			procs[i] = r.x.procs[i]
			continue
		}
		procs[i] = r.receive(i, a.fresh[i]&r.live[i])
	}
	s, buf := assemble(r.environment(a.phased), procs, r.x.inputs, r.buf)
	r.buf = buf
	return s
}

// receive returns receiver to's record after it receives its backlog and
// the fresh messages of the senders in fresh, computing it on the first
// request.
func (r *phaseMemo) receive(to int, fresh uint64) *proc {
	n := len(r.x.procs)
	slot := to<<uint(n) | int(fresh)
	if rec := r.recs[slot]; rec != nil {
		return rec
	}
	src := r.x.procs[to]
	consumed := make([]int, n)
	spill := r.spill[:0]
	for j := range r.in {
		h := r.x.env.hist[j*n+to]
		consumed[j] = len(h)
		backlog := h[src.consumed[j]:]
		switch {
		case fresh&(1<<uint(j)) == 0:
			r.in[j] = backlog
		case len(backlog) == 0:
			consumed[j]++
			r.in[j] = r.sends[j][to : to+1 : to+1]
		default:
			consumed[j]++
			start := len(spill)
			spill = append(append(spill, backlog...), r.sends[j][to])
			r.in[j] = spill[start:len(spill):len(spill)]
		}
	}
	r.spill = spill
	rec := newProc(r.p, r.p.Receive(src.local, r.in), consumed)
	r.recs[slot] = rec
	return rec
}

// environment returns the environment after the processes in phased sent
// their messages, computing it on the first request.
func (r *phaseMemo) environment(phased uint64) *env {
	if e := r.envs[phased]; e != nil {
		return e
	}
	n := len(r.x.procs)
	src := r.x.env.hist
	size := 0
	for c, h := range src {
		if r.extends(c, phased) {
			size += len(h) + 1
		}
	}
	slab := make([]string, 0, size)
	e := &env{hist: make([][]string, len(src))}
	buf := r.buf[:0]
	for c, h := range src {
		enc := r.encs[c]
		if !r.extends(c, phased) {
			e.hist[c] = h
			buf = proto.AppendJoin(buf, enc)
			continue
		}
		m := r.sends[c/n][c%n]
		start := len(slab)
		slab = append(append(slab, h...), m)
		e.hist[c] = slab[start:len(slab):len(slab)]
		buf = strconv.AppendInt(buf, int64(len(enc)+joinLen(m)), 10)
		buf = proto.AppendJoin(append(append(buf, ':'), enc...), m)
	}
	e.key = string(buf)
	r.buf = buf
	r.envs[phased] = e
	return e
}

// extends reports whether channel c gains a message when the processes in
// phased send.
func (r *phaseMemo) extends(c int, phased uint64) bool {
	n := len(r.x.procs)
	from, to := c/n, c%n
	return phased&r.live[to]&(1<<uint(from)) != 0
}

// joinLen is len(proto.Join(f)).
func joinLen(f string) int {
	var num [20]byte
	return len(strconv.AppendInt(num[:0], int64(len(f)), 10)) + 1 + len(f)
}
