package valence

import (
	"errors"
	"fmt"

	"repro/internal/arena"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilient"
)

// Requirement is what a certification checks besides the requirements
// Search checks on every run itself — decisions are write-once, and every
// process non-failed at the bound has decided. Consensus (CertifyGraph)
// and decision tasks (decision.CertifyTask) implement it.
type Requirement interface {
	// Class returns the class of the runs from root i, through which alone
	// the state check sees a run (consensus: the input-value mask; a task:
	// the input simplex). Runs of one class share visited bits.
	Class(i int) uint64
	// Fails reports whether node v fails the state check in class c.
	Fails(v uint32, c uint64) bool
	// ID keys certify checkpoints to the requirement (0 for consensus).
	ID() uint64
}

// Check names the check a violating run fails at its end.
type Check int

// The checks Search makes along a run.
const (
	StateCheck     Check = iota + 1 // Requirement.Fails at the last state
	DecideCheck                     // a process is undecided at the bound
	WriteOnceCheck                  // a decision changed across the last step
)

// Violation is the first violating run Search finds: Exec from its root to
// where Check failed, and the run's Class. Detail explains a failed shared
// check (DecideCheck, WriteOnceCheck); the requirement explains its own.
type Violation struct {
	Exec   *core.Execution
	Check  Check
	Class  uint64
	Detail string
}

// Search certifies req and the shared requirements over every run of g,
// up to g.Depth layers, roots in Inits order and edges in enumeration
// order. It returns the first violating run (nil if none) and the number
// of visits, one per (class, node, lag), where a node's lag on a run is
// the run's length there minus the node's first-discovery depth: exactly
// the (state, remaining depth, inputs) memo of a search that re-enumerates
// successors, on graded graphs (lag always 0) and on the rest. maxVisits
// bounds the visits (0 = no bound); g must be explored with no node budget.
//
// Search polls ctx and the chaos certify.visit point at every root and
// every 256 steps. An interruption returns an error wrapping ErrCanceled
// or ErrDeadline (ErrBudget for an injected budget fault) with a
// resilient.Checkpointer of the visited bitsets, DFS stack and root
// cursor; resuming it (resilient.TagCertify, keyed to g and req.ID)
// finishes bit-identical to an uninterrupted run. Its callers report the
// certification: Search emits only the resume and interrupt events.
func Search(ctx *resilient.Ctx, g *core.IDGraph, maxVisits int, req Requirement) (*Violation, int, error) {
	var c graphCertifier
	v, err := c.search(ctx, g, maxVisits, req, nil, 0)
	return v, c.visits, err
}

// search runs one certification on a (possibly reused) certifier,
// allocating visited bitsets from ar when non-nil (the Sweep zero-alloc
// path) and from the heap otherwise. Under a trace, each root gets a
// certify.root span below span; span 0 records none.
func (c *graphCertifier) search(ctx *resilient.Ctx, g *core.IDGraph, maxVisits int, req Requirement, ar *arena.Arena, span obs.SpanID) (*Violation, error) {
	rec := obs.Active()
	tr := obs.Trace()
	if span == 0 {
		tr = nil
	}
	c.g, c.ctx, c.req, c.maxVisits, c.ar = g, ctx, req, maxVisits, ar
	c.cp = certPlanesOf(g)
	c.visits, c.steps, c.rootIdx = 0, 0, 0
	c.bs, c.stack = nil, c.stack[:0]
	if c.visited == nil {
		c.visited = make(map[uint64][]uint64)
	} else {
		clear(c.visited)
	}
	startRoot, midRoot := 0, false
	if data := ctx.PeekResume(resilient.TagCertify); data != nil {
		ck, err := DecodeCertifyCheckpoint(data)
		if err != nil {
			return nil, err
		}
		if ck.Matches(g, req, maxVisits) {
			ctx.TakeResume(resilient.TagCertify)
			ck.restore(c)
			startRoot, midRoot = c.rootIdx, len(c.stack) > 0
			if rec != nil {
				rec.Add("certify.resumes", 1)
				rec.Event("certify.resume",
					obs.F{Key: "root", Value: startRoot},
					obs.F{Key: "visits", Value: c.visits},
					obs.F{Key: "stack", Value: len(c.stack)})
			}
		}
	}
	for ri := startRoot; ri < len(g.Inits); ri++ {
		c.rootIdx = ri
		// Root boundaries are interruption points too: small graphs never
		// reach the 256-step poll, and a root-top cut (empty stack) is the
		// cheapest checkpoint there is.
		if err := c.stop(); err != nil {
			return nil, err
		}
		var rsp obs.TraceSpan
		if tr != nil {
			rsp = tr.Begin("certify.root", span)
		}
		c.root = g.Inits[ri]
		c.class = req.Class(ri)
		c.bs = c.visited[c.class]
		var v *Violation
		var err error
		// An interrupted root continues exactly where its stack left off.
		if ri != startRoot || !midRoot {
			c.stack = c.stack[:0]
			v, err = c.visit(c.root, 0, -1)
		}
		if v == nil && err == nil {
			v, err = c.loop()
		}
		if tr != nil {
			tr.End(rsp)
		}
		if v != nil || err != nil {
			return v, err
		}
	}
	return nil, nil
}

// gframe is one DFS stack entry: a node being expanded, the CSR edge it was
// entered through (-1 for the root), and the cursor of its next out-edge.
// A frame's index in the stack is the length of the run to its node.
type gframe struct {
	node uint32
	via  int32
	next uint32
}

type graphCertifier struct {
	g         *core.IDGraph
	ctx       *resilient.Ctx
	req       Requirement
	cp        *certPlanes
	ar        *arena.Arena
	maxVisits int
	visits    int
	// steps counts DFS loop iterations; every 256th polls the context and
	// the certify.visit fault point.
	steps int
	// rootIdx is the cursor into g.Inits, part of the checkpoint.
	rootIdx int
	// visited[class] is the class's visited bitset: bit lag·N + u marks
	// node u visited at that lag, N = g.Len(). It holds one N-bit plane
	// per lag reached so far, so on a graded graph it is N bits.
	visited map[uint64][]uint64
	bs      []uint64
	root    uint32
	class   uint64
	stack   []gframe
	// ok is the reused all-clear verdict, so a clean certification on a
	// warmed certifier allocates nothing.
	ok Witness
}

// words allocates n zeroed words from the arena, or the heap without one.
func (c *graphCertifier) words(n int) []uint64 {
	if c.ar != nil {
		return c.ar.Words(n)
	}
	return make([]uint64, n)
}

// loop drains the DFS stack. It is the shared tail of a fresh root and a
// checkpoint resume: everything it needs — stack, bitset, root, class —
// is certifier state, and every 256th iteration is an interruption point
// whose cut is exactly that state.
func (c *graphCertifier) loop() (*Violation, error) {
	g := c.g
	cp := c.cp
	for len(c.stack) > 0 {
		c.steps++
		if c.steps&255 == 0 {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
		top := &c.stack[len(c.stack)-1]
		u := top.node
		if top.next == g.EdgeStart[u+1] {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		e := top.next
		top.next++
		v := g.EdgeTo[e]
		// The edge plane is precomputed; the original check confirms a
		// dirty edge.
		if cp.bit(cp.woBad, e) {
			if w := checkWriteOnce(g.States[u], g.States[v]); w != nil {
				return &Violation{Exec: c.execTo(int32(e)), Check: WriteOnceCheck, Class: c.class, Detail: w.Detail}, nil
			}
		}
		if w, err := c.visit(v, len(c.stack), int32(e)); w != nil || err != nil {
			return w, err
		}
	}
	return nil, nil
}

// stop polls the context and the certify.visit fault point; on
// interruption it snapshots the certifier into a checkpoint and attaches
// it to the returned error. Injected budget faults are routed through
// ErrBudget so they surface exactly like a real exhausted visit budget.
func (c *graphCertifier) stop() error {
	err := chaos.Check(c.ctx, "certify.visit")
	if err == nil {
		return nil
	}
	var f *chaos.Fault
	if errors.As(err, &f) && f.Kind == chaos.KindBudget {
		err = fmt.Errorf("%w: %w", ErrBudget, err)
	}
	if rec := obs.Active(); rec != nil {
		rec.Add("certify.interrupts", 1)
		rec.Event("certify.interrupted",
			obs.F{Key: "root", Value: c.rootIdx},
			obs.F{Key: "visits", Value: c.visits},
			obs.F{Key: "cause", Value: err.Error()})
	}
	werr := fmt.Errorf("valence: certification interrupted after %d visits: %w", c.visits, err)
	return resilient.WithCheckpoint(werr, c.checkpoint())
}

// visit enters node v at run length depth through edge via (-1 for the
// root), unless v was visited at that lag before: it marks and counts the
// visit, checks the requirement's state check always and decision at the
// bound, and pushes v for expansion below the bound.
func (c *graphCertifier) visit(v uint32, depth int, via int32) (*Violation, error) {
	lag := depth - int(c.g.DepthOf[v])
	if c.seen(v, lag) {
		return nil, nil
	}
	c.mark(v, lag)
	c.visits++
	if c.maxVisits > 0 && c.visits > c.maxVisits {
		return nil, fmt.Errorf("after %d visits: %w", c.visits, ErrBudget)
	}
	if c.req.Fails(v, c.class) {
		return &Violation{Exec: c.execTo(via), Check: StateCheck, Class: c.class}, nil
	}
	if depth >= c.g.Depth {
		if !c.cp.bit(c.cp.allDec, v) {
			return &Violation{Exec: c.execTo(via), Check: DecideCheck, Class: c.class,
				Detail: fmt.Sprintf("a non-failed process is undecided after %d layers", c.g.Depth)}, nil
		}
		return nil, nil
	}
	c.stack = append(c.stack, gframe{node: v, via: via, next: c.g.EdgeStart[v]})
	return nil, nil
}

// execTo rebuilds the execution from the current root along the DFS stack,
// extended by finalEdge when >= 0. Called only on violation.
func (c *graphCertifier) execTo(finalEdge int32) *core.Execution {
	g := c.g
	steps := make([]core.Step, 0, len(c.stack)+1)
	for _, f := range c.stack {
		if f.via >= 0 {
			steps = append(steps, core.Step{Action: g.EdgeAction[f.via], State: g.States[f.node]})
		}
	}
	if finalEdge >= 0 {
		steps = append(steps, core.Step{Action: g.EdgeAction[finalEdge], State: g.States[g.EdgeTo[finalEdge]]})
	}
	return &core.Execution{Init: g.States[c.root], Steps: steps}
}

// seen reports whether node u was visited at a lag: bit lag·N + u.
func (c *graphCertifier) seen(u uint32, lag int) bool {
	i := lag*c.g.Len() + int(u)
	return i>>6 < len(c.bs) && c.bs[i>>6]&(1<<(i&63)) != 0
}

// mark sets u's bit at a lag, creating the class's bitset on its first
// visit and growing it by whole lag planes when the lag is new.
func (c *graphCertifier) mark(u uint32, lag int) {
	i := lag*c.g.Len() + int(u)
	if i>>6 >= len(c.bs) {
		grown := c.words(((lag+1)*c.g.Len() + 63) / 64)
		copy(grown, c.bs)
		c.bs = grown
		c.visited[c.class] = grown
	}
	c.bs[i>>6] |= 1 << (i & 63)
}
