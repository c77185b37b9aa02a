// Package knowledge implements the epistemic side of the paper's Section 6
// discussion: the connection, via Dwork & Moses [11], between deciding in
// the synchronous model and common knowledge among the nonfaulty
// processes.
//
// Over a set of global states (typically: all states reachable at one
// round of the t-resilient model), process i considers x and y
// indistinguishable when its local state is the same in both. "Everyone
// (non-failed) knows φ" at x means φ holds at every state some non-failed
// process cannot distinguish from x; common knowledge is the transitive
// closure — φ holds on x's entire connected component under the union of
// the non-failed indistinguishability relations.
//
// The classical result this makes executable: when a (correct) consensus
// protocol decides, the decided value is common knowledge among the
// nonfaulty processes — and before the decision round it is not.
package knowledge

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/resilient"
)

// Classes partitions states into common-knowledge classes: connected
// components of the union, over processes i that are non-failed in the
// endpoint states, of i's indistinguishability relation.
type Classes struct {
	states []core.State
	uf     *graph.UnionFind
	index  map[string]int
}

// classesCheckEvery is how many states the bucketing loop processes
// between context polls.
const classesCheckEvery = 1024

// NewClasses computes the common-knowledge partition of the given states.
// Two states are linked when some process, non-failed in both, has the
// same local state in both.
//
// Rather than testing all pairs, states are bucketed by (process i, n,
// Local(i)) over the processes non-failed in them: every pair inside a
// bucket is linked, and no link exists outside a bucket, so unioning each
// bucket's members into a chain yields exactly the pairwise partition in
// near-linear time.
//
// ctx (nil never cancels) is polled, with the chaos knowledge.bucket fault
// point, every 1024 states. An interruption returns the partial partition
// built so far — a valid (coarser-than-final) partition of the states
// already linked — alongside the wrapped cause.
func NewClasses(ctx *resilient.Ctx, states []core.State) (*Classes, error) {
	rec := obs.Active()
	defer obs.Span(rec, "knowledge.classes.time")()
	if tr := obs.Trace(); tr != nil {
		defer tr.End(tr.Begin("knowledge.classes", 0))
	}
	c := &Classes{
		states: states,
		uf:     graph.NewUnionFind(len(states)),
		index:  make(map[string]int, len(states)),
	}
	for i, x := range states {
		if i%classesCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return c, fmt.Errorf("knowledge: partition interrupted while indexing state %d of %d: %w", i, len(states), err)
			}
		}
		c.index[x.Key()] = i
	}
	links := 0
	buckets := make(map[string]int, len(states))
	var b strings.Builder
	for idx, x := range states {
		if idx%classesCheckEvery == 0 {
			if err := chaos.Check(ctx, "knowledge.bucket"); err != nil {
				if rec != nil {
					rec.Add("knowledge.interrupts", 1)
					rec.Event("knowledge.interrupted",
						obs.F{Key: "at", Value: idx},
						obs.F{Key: "states", Value: len(states)},
						obs.F{Key: "cause", Value: err.Error()})
				}
				return c, fmt.Errorf("knowledge: partition interrupted at state %d of %d: %w", idx, len(states), err)
			}
		}
		for i := 0; i < x.N(); i++ {
			if x.FailedAt(i) {
				continue
			}
			b.Reset()
			b.WriteString(strconv.Itoa(i))
			b.WriteByte('\x1f')
			b.WriteString(strconv.Itoa(x.N()))
			b.WriteByte('\x1f')
			b.WriteString(x.Local(i))
			key := b.String()
			if first, seen := buckets[key]; seen {
				c.uf.Union(first, idx)
				links++
			} else {
				buckets[key] = idx
			}
		}
	}
	if rec != nil {
		rec.Add("knowledge.partitions", 1)
		rec.Add("knowledge.states", int64(len(states)))
		rec.Add("knowledge.links", int64(links))
		rec.Set("knowledge.classes", int64(c.uf.Sets()))
	}
	return c, nil
}

// NewClassesLayer computes the common-knowledge partition of one depth
// layer of a materialized state graph, in discovery order, under ctx as
// NewClasses. The partition runs directly over the layer's id window of
// the CSR node array (core.IDGraph.LayerSpan) — no copy.
func NewClassesLayer(ctx *resilient.Ctx, g *core.IDGraph, d int) (*Classes, error) {
	lo, hi := g.LayerSpan(d)
	return NewClasses(ctx, g.States[lo:hi:hi])
}

// SameClass reports whether two states (by key) are in the same
// common-knowledge class. Unknown keys report false.
func (c *Classes) SameClass(xKey, yKey string) bool {
	i, ok1 := c.index[xKey]
	j, ok2 := c.index[yKey]
	return ok1 && ok2 && c.uf.Connected(i, j)
}

// Count returns the number of classes.
func (c *Classes) Count() int { return c.uf.Sets() }

// CommonKnowledge reports whether the fact holds at every state of x's
// class — i.e. whether the fact is common knowledge among the non-failed
// processes at x. Unknown keys report false.
func (c *Classes) CommonKnowledge(xKey string, fact func(core.State) bool) bool {
	i, ok := c.index[xKey]
	if !ok {
		return false
	}
	root := c.uf.Find(i)
	for j, y := range c.states {
		if c.uf.Find(j) == root && !fact(y) {
			return false
		}
	}
	return true
}

// Class returns the keys of x's class, sorted. Unknown keys return nil.
func (c *Classes) Class(xKey string) []string {
	i, ok := c.index[xKey]
	if !ok {
		return nil
	}
	root := c.uf.Find(i)
	var out []string
	for j, y := range c.states {
		if c.uf.Find(j) == root {
			out = append(out, y.Key())
		}
	}
	sort.Strings(out)
	return out
}

// ClassValence folds a valence field over the partition: masks[i] is the
// valence mask of states[i] (as produced by valence.Field over the layer's
// nodes, in the same order), and the result assigns every state the OR of
// the masks across its whole common-knowledge class. Before the decision
// round a class containing a bivalent state spreads both valence bits to
// every member — the executable form of "the decided value is not yet
// common knowledge".
func (c *Classes) ClassValence(masks []uint8) []uint8 {
	classMask := make(map[int]uint8, c.uf.Sets())
	for i := range c.states {
		classMask[c.uf.Find(i)] |= masks[i]
	}
	out := make([]uint8, len(c.states))
	for i := range c.states {
		out[i] = classMask[c.uf.Find(i)]
	}
	return out
}

// DecidedValueFact returns a fact asserting "some non-failed process has
// decided v" — the canonical fact whose common knowledge accompanies
// consensus decisions.
func DecidedValueFact(v int) func(core.State) bool {
	return func(x core.State) bool {
		for i := 0; i < x.N(); i++ {
			if x.FailedAt(i) {
				continue
			}
			if got, ok := x.Decided(i); ok && got == v {
				return true
			}
		}
		return false
	}
}
