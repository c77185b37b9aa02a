package decision

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilient"
	"repro/internal/simplex"
	"repro/internal/valence"
)

// TaskWitnessKind classifies the outcome of certifying a protocol against
// a general decision problem.
type TaskWitnessKind int

// Task certification outcomes.
const (
	TaskOK TaskWitnessKind = iota + 1
	TaskOutputViolation
	TaskUndecidedAtBound
	TaskDecisionChanged
)

// String returns a human-readable name.
func (k TaskWitnessKind) String() string {
	switch k {
	case TaskOK:
		return "ok"
	case TaskOutputViolation:
		return "output outside Δ(input)"
	case TaskUndecidedAtBound:
		return "undecided at bound"
	case TaskDecisionChanged:
		return "write-once decision changed"
	default:
		return fmt.Sprintf("TaskWitnessKind(%d)", int(k))
	}
}

// TaskWitness is the outcome of CertifyTask.
type TaskWitness struct {
	Kind     TaskWitnessKind
	Exec     *core.Execution
	Detail   string
	Explored int
}

// CertifyTask exhaustively checks that a protocol solves the decision
// problem over the layered submodel: on every run of at most `bound`
// layers from each of the given initial states, decisions are write-once,
// every process non-failed at the bound-layer state has decided, and the
// decided output simplex (restricted to non-failed processes) is a face of
// some simplex in delta(input simplex of the run). Agreement is NOT
// required — that is the point of general decision problems.
//
// It runs valence.Search over core.WithInits(m, inits), so ctx interrupts
// and resumes it as it does valence.Certify. The initial states must
// expose their inputs (core.Input). maxVisits caps the search's visits
// (0 = unbounded); the exploration to the bound is never capped.
func CertifyTask(ctx *resilient.Ctx, m core.Model, inits []core.State, delta simplex.DeltaFunc, bound, maxVisits int) (*TaskWitness, error) {
	g, err := core.ExploreIDCtx(ctx, core.WithInits(m, inits), bound, 0, 0)
	if err != nil {
		return nil, err
	}
	// Exploration reports itself; the certify.task span covers the
	// search, as the certify span does for consensus.
	rec := obs.Active()
	if tr := obs.Trace(); tr != nil {
		defer tr.End(tr.Begin("certify.task", 0))
	}
	req, err := newTaskRequirement(g, delta)
	if err != nil {
		return nil, err
	}
	v, explored, err := valence.Search(ctx, g, maxVisits, req)
	if err != nil {
		return nil, err
	}
	w := &TaskWitness{Kind: TaskOK}
	if v != nil {
		switch v.Check {
		case valence.StateCheck:
			w = checkPartialOutput(v.Exec.Last(), req.allowed[v.Class])
		case valence.DecideCheck:
			w = &TaskWitness{Kind: TaskUndecidedAtBound, Detail: v.Detail}
		default:
			w = &TaskWitness{Kind: TaskDecisionChanged, Detail: v.Detail}
		}
		w.Exec = v.Exec
	}
	w.Explored = explored
	if rec != nil {
		rec.Add("certify.task.runs", 1)
		rec.Add("certify.task.visits", int64(explored))
		rec.Event("certify.task.done",
			obs.F{Key: "verdict", Value: w.Kind.String()},
			obs.F{Key: "explored", Value: w.Explored})
	}
	return w, nil
}

// taskRequirement is CertifyTask's valence.Requirement: a run's class
// numbers its input simplex, and a state fails when the decisions of its
// non-failed processes extend no simplex Δ allows for that input.
type taskRequirement struct {
	states  []core.State
	class   []uint64            // per root
	allowed [][]simplex.Simplex // per class: Δ(input simplex)
}

// newTaskRequirement numbers the distinct input simplexes of g's roots in
// root order and evaluates Δ once on each.
func newTaskRequirement(g *core.IDGraph, delta simplex.DeltaFunc) (*taskRequirement, error) {
	r := &taskRequirement{states: g.States, class: make([]uint64, len(g.Inits))}
	classOf := make(map[string]uint64)
	for i, u := range g.Inits {
		in, ok := g.States[u].(core.Input)
		if !ok {
			return nil, fmt.Errorf("decision: initial state does not expose inputs")
		}
		vals := make([]int, g.States[u].N())
		for p := range vals {
			vals[p] = in.InputOf(p)
		}
		input := simplex.FromValues(vals)
		c, seen := classOf[input.Key()]
		if !seen {
			allowed := delta(input)
			if len(allowed) == 0 {
				return nil, fmt.Errorf("decision: Δ(%s) is empty", input)
			}
			c = uint64(len(r.allowed))
			classOf[input.Key()] = c
			r.allowed = append(r.allowed, allowed)
		}
		r.class[i] = c
	}
	return r, nil
}

// Class implements valence.Requirement.
func (r *taskRequirement) Class(i int) uint64 { return r.class[i] }

// Fails implements valence.Requirement.
func (r *taskRequirement) Fails(v uint32, c uint64) bool {
	return checkPartialOutput(r.states[v], r.allowed[c]) != nil
}

// ID implements valence.Requirement: a hash of the allowed outputs, so
// the certify checkpoints of different tasks over one graph never resume
// each other.
func (r *taskRequirement) ID() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, r.allowed)
	return h.Sum64()
}

// checkPartialOutput verifies the decided-so-far simplex is a face of some
// allowed output simplex.
func checkPartialOutput(x core.State, allowed []simplex.Simplex) *TaskWitness {
	var verts []simplex.Vertex
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		if v, ok := x.Decided(i); ok {
			verts = append(verts, simplex.Vertex{ID: i, Value: v})
		}
	}
	if len(verts) == 0 {
		return nil
	}
	partial, err := simplex.New(verts...)
	if err != nil {
		return &TaskWitness{Kind: TaskOutputViolation, Detail: err.Error()}
	}
	for _, a := range allowed {
		if a.Contains(partial) {
			return nil
		}
	}
	return &TaskWitness{
		Kind:   TaskOutputViolation,
		Detail: fmt.Sprintf("decisions %s extend no simplex of Δ(input)", partial),
	}
}
