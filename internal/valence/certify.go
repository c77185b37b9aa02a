package valence

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilient"
)

// WitnessKind classifies the outcome of certifying a consensus protocol
// over a layered submodel.
type WitnessKind int

// Witness kinds. OK means all three consensus requirements held on every
// S-run of at most the bound's layers.
const (
	OK WitnessKind = iota + 1
	AgreementViolation
	ValidityViolation
	UndecidedAtBound
	DecisionChanged // a write-once decision variable changed value
)

// String returns a human-readable name.
func (k WitnessKind) String() string {
	switch k {
	case OK:
		return "ok"
	case AgreementViolation:
		return "agreement violation"
	case ValidityViolation:
		return "validity violation"
	case UndecidedAtBound:
		return "undecided at bound"
	case DecisionChanged:
		return "write-once decision changed"
	default:
		return fmt.Sprintf("WitnessKind(%d)", int(k))
	}
}

// Witness is the outcome of Certify: either OK, or a violation together
// with the execution exhibiting it.
type Witness struct {
	Kind   WitnessKind
	Exec   *core.Execution // nil when Kind == OK
	Detail string
	// Explored is the number of certifier visits: (state, depth, input
	// mask) triples.
	Explored int
}

// ErrBudget is returned when certification exceeds the node budget. As a
// resilient.Sentinel it wraps resilient.ErrPartial, joining the
// canceled/deadline family under one degradation check.
var ErrBudget = resilient.Sentinel("valence: certification exceeded state budget")

// Certify exhaustively checks the consensus requirements over all S-runs of
// the model up to `bound` layers: agreement (all processes non-failed at a
// state that have decided agree), validity (every decision is some process's
// input in that run), decision (every process non-failed at the
// bound-layer state has decided by then), and write-once stability of
// decisions across each transition. It explores the model's graph, polling
// ctx at layer boundaries, and runs CertifyGraph over it; whichever phase
// is interrupted attaches its checkpoint to the error. maxVisits bounds
// the certifier's visits (0 = no bound), not the exploration, which always
// runs to the bound. To certify from other initial states, certify
// core.WithInits(m, inits).
func Certify(ctx *resilient.Ctx, m core.Model, bound, maxVisits int) (*Witness, error) {
	g, err := core.ExploreIDCtx(ctx, m, bound, 0, 0)
	if err != nil {
		return nil, err
	}
	return CertifyGraph(ctx, g, maxVisits)
}

// CertifyGraph certifies consensus over every run of an explored graph:
// Search with agreement and validity under the run's input-value mask as
// the state check, answered from the graph's cached planes (certPlanesOf)
// with one word test per visit. The first violation found (roots in Inits
// order, successors in enumeration order) is returned with its witness.
func CertifyGraph(ctx *resilient.Ctx, g *core.IDGraph, maxVisits int) (*Witness, error) {
	return new(graphCertifier).certify(ctx, g, maxVisits)
}

// certify runs one consensus certification. A run failing the state check
// is explained by re-running checkState on its last state. It emits the
// certify span, certify.start, certify.time and certify.done.
func (c *graphCertifier) certify(ctx *resilient.Ctx, g *core.IDGraph, maxVisits int) (*Witness, error) {
	rec := obs.Active()
	var span obs.TraceSpan
	if tr := obs.Trace(); tr != nil {
		span = tr.Begin("certify", 0)
		defer tr.End(span)
	}
	if rec != nil {
		defer obs.Span(rec, "certify.time")()
		rec.Event("certify.start",
			obs.F{Key: "engine", Value: "graph"},
			obs.F{Key: "nodes", Value: g.Len()},
			obs.F{Key: "edges", Value: g.NumEdges()},
			obs.F{Key: "depth", Value: g.Depth},
			obs.F{Key: "roots", Value: len(g.Inits)})
	}
	v, err := c.search(ctx, g, maxVisits, certPlanesOf(g), span.ID)
	if err != nil {
		return nil, err
	}
	w := &Witness{Kind: OK}
	if v != nil {
		switch v.Check {
		case StateCheck:
			w = checkState(v.Exec.Last(), v.Class)
		case DecideCheck:
			w = &Witness{Kind: UndecidedAtBound, Detail: v.Detail}
		default:
			action := v.Exec.Steps[v.Exec.Len()-1].Action
			w = &Witness{Kind: DecisionChanged, Detail: fmt.Sprintf("%s (action %s)", v.Detail, action)}
		}
		w.Exec = v.Exec
	}
	w.Explored = c.visits
	c.finish(rec, w)
	return w, nil
}

// finish publishes the certification's counters and emits certify.done.
// The visited-bitset density — visits over (nodes × class bitsets) — is
// how full the memo got: near 100% means the search was bound by the
// graph, not by pruning. On a non-graded graph, where nodes are visited
// at several lags, it can exceed 100%.
func (c *graphCertifier) finish(rec obs.Recorder, w *Witness) {
	if rec == nil {
		return
	}
	rec.Add("certify.runs", 1)
	rec.Add("certify.visits", int64(c.visits))
	rec.Set("certify.explored", int64(c.visits))
	densityPct := int64(0)
	if cells := int64(c.g.Len()) * int64(len(c.visited)); cells > 0 {
		densityPct = int64(c.visits) * 100 / cells
	}
	rec.Set("certify.bitset_density_pct", densityPct)
	rec.Event("certify.done",
		obs.F{Key: "engine", Value: "graph"},
		obs.F{Key: "verdict", Value: w.Kind.String()},
		obs.F{Key: "explored", Value: w.Explored},
		obs.F{Key: "bitsets", Value: len(c.visited)},
		obs.F{Key: "density_pct", Value: densityPct})
}

// Class implements Requirement: a consensus run's class is its root's
// input-value mask.
func (cp *certPlanes) Class(i int) uint64 { return cp.rootInputs[i] }

// Fails implements Requirement with checkState, asked only of a node the
// planes flag: one with a decided value outside the inputs, or with two
// non-failed processes decided differently.
func (cp *certPlanes) Fails(v uint32, inputs uint64) bool {
	return (cp.dvals[v]&^inputs != 0 || cp.bit(cp.agreeBad, v)) && checkState(cp.states[v], inputs) != nil
}

// ID implements Requirement.
func (cp *certPlanes) ID() uint64 { return 0 }

// checkState checks agreement and validity at a single state.
func checkState(x core.State, inputs uint64) *Witness {
	seen := -1
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		v, ok := x.Decided(i)
		if !ok {
			continue
		}
		if v >= 0 && v < 63 && inputs&(1<<uint(v)) == 0 {
			return &Witness{
				Kind:   ValidityViolation,
				Detail: fmt.Sprintf("process %d decided %d, which is nobody's input", i, v),
			}
		}
		if seen >= 0 && v != seen {
			return &Witness{
				Kind:   AgreementViolation,
				Detail: fmt.Sprintf("non-failed processes decided both %d and %d", seen, v),
			}
		}
		seen = v
	}
	return nil
}

// checkWriteOnce verifies decisions are stable across a transition.
func checkWriteOnce(x, y core.State) *Witness {
	for i := 0; i < x.N(); i++ {
		v, ok := x.Decided(i)
		if !ok {
			continue
		}
		w, ok2 := y.Decided(i)
		if !ok2 || w != v {
			return &Witness{
				Kind:   DecisionChanged,
				Detail: fmt.Sprintf("process %d had decided %d but successor reports (%d,%v)", i, v, w, ok2),
			}
		}
	}
	return nil
}

// inputMask returns the set of input values of a run's initial state as a
// bitmask, or all-ones if the state does not expose inputs (disabling the
// validity check).
func inputMask(init core.State) uint64 {
	in, ok := init.(core.Input)
	if !ok {
		return ^uint64(0)
	}
	var mask uint64
	for i := 0; i < init.N(); i++ {
		v := in.InputOf(i)
		if v >= 0 && v < 63 {
			mask |= 1 << uint(v)
		}
	}
	return mask
}
