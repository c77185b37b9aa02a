package shmem

import (
	"sync"

	"repro/internal/core"
	"repro/internal/proto"
)

// Action is a layer action as a list of steps; each process writes and
// scans at most once per action.
type Action struct {
	Label string
	Steps []Step
}

// Step is one step of an action: the processes in Write write, then those
// in Scan scan the memory (both are process bitmasks).
type Step struct{ Write, Scan uint64 }

// Layering is a shared-memory model under one layering: an id table, the
// initial states, and a key-first successor function that applies the
// action table through one memo per source state. The S^rw, snapshot and
// IIS models embed it, and with it their per-model successor cache.
type Layering struct {
	*core.SuccessorCache
	tab     *table
	name    string
	inits   core.InitMemo
	actions func() []Action
}

// NewLayering returns the model named name of protocol p on n processes
// whose layer actions are actions(), built on first use; an iterated
// model's memory is fresh every layer.
func NewLayering(p proto.SMProtocol, n int, name string, iterated bool, actions func() []Action) *Layering {
	l := &Layering{tab: newTable(p, n, iterated), name: name, actions: sync.OnceValue(actions)}
	l.SuccessorCache = core.NewKeyedCache(l)
	return l
}

// Name implements core.Model.
func (l *Layering) Name() string { return l.name }

// N returns the number of processes.
func (l *Layering) N() int { return l.tab.n }

// Inits implements core.Model: Con_0, with the memory empty.
func (l *Layering) Inits() []core.State {
	return l.inits.Get(l.tab.n, func(in []int) core.State { return l.Initial(in) })
}

// Initial builds the initial state for an explicit input assignment.
func (l *Layering) Initial(inputs []int) *State {
	t := l.tab
	locals := make([]string, t.n)
	for i := range locals {
		locals[i] = t.p.Init(t.n, i, inputs[i])
	}
	var mem []string
	if !t.iterated {
		mem = make([]string, t.n)
	}
	return NewState(t.p, 0, mem, locals, inputs)
}

// Labels implements core.KeyedSuccessor: the labels of the action table,
// in order, so an action's label id is its index.
func (l *Layering) Labels() []string {
	actions := l.actions()
	labels := make([]string, len(actions))
	for i := range actions {
		labels[i] = actions[i].Label
	}
	return labels
}

// SuccessorsKeyed implements core.KeyedSuccessor through one memo.
func (l *Layering) SuccessorsKeyed(x core.State, p core.Prober) {
	s, ok := x.(*State)
	if !ok {
		return
	}
	actions := l.actions()
	r := l.tab.memo(s, p)
	for i := range actions {
		id, st := r.next(&actions[i])
		p.Emit(uint32(i), id, st)
	}
	r.done()
}

// Next returns the successor of x under action a, built without a cache:
// the one-action entry points of the model packages.
func (l *Layering) Next(x *State, a Action) *State {
	r := l.tab.memo(x, core.Prober{})
	_, st := r.next(&a)
	r.done()
	return st.(*State)
}
