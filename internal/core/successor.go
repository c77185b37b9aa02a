package core

// Succ is one labeled successor of a state: the environment action that was
// applied (in the paper's notation, e.g. "(j,[k])", "(j,A)", or a scheduling
// permutation) and the resulting state.
type Succ struct {
	// Action is a human-readable canonical label for the environment action
	// that produced the transition. Actions are unique within a layer: a
	// Successor never returns two Succs with equal Action for the same
	// source state (though two distinct actions may yield equal states).
	Action string

	// State is the resulting global state.
	State State
}

// Successor is the paper's successor function S : G -> 2^G \ {∅}. For every
// state x it enumerates a non-empty set of labeled successors S(x). A run r
// with r(m+1) ∈ S(r(m)) for all m is an S-run; the set of S-runs from the
// initial states is the submodel R_S.
//
// Implementations must be deterministic: repeated calls with equal states
// (equal Keys) return the same successors in the same order.
type Successor interface {
	// Successors returns the labeled elements of S(x).
	Successors(x State) []Succ
}

// KeyedSuccessor is the key-first face of a successor function, for models
// that can name a successor before building it. For every successor the
// model writes the successor's cache key into a buffer it reuses and asks
// the Prober for the state filed under it; it builds the State only when
// the probe misses, and files it with Prober.Intern. It then emits the
// edge into the Prober as two ids: the action's label id and the
// successor's cache id. The successor cache enumerates every model through
// this interface: a plain Successor enters through an adapter that keys
// each already-built successor with AppendKey and interns its label.
type KeyedSuccessor interface {
	// AppendCacheKey appends the key the cache files x under. Two states
	// of the model are equal exactly if their cache keys are. A model may
	// key the states it built from what it memoized while building them,
	// but it must key any other state from its Local, EnvKey and round
	// strings, so that an equal state built elsewhere gets the same key.
	AppendCacheKey(dst []byte, x State) []byte

	// Labels returns the model's action labels: a label id the model emits
	// names Labels()[id]. The cache asks once, when it first renders or
	// looks up a label, and keeps the slice, which must not change after.
	Labels() []string

	// SuccessorsKeyed enumerates S(x) key-first through p, emitting every
	// successor with p.Emit in enumeration order. With the zero Prober
	// every probe misses, so every successor probed is built, and every
	// emission is dropped.
	SuccessorsKeyed(x State, p Prober)
}

// Prober resolves successor cache keys during a key-first enumeration,
// against a successor cache or, for a Prober without one, against
// nothing, and collects the edges the enumeration emits.
type Prober struct {
	c   *SuccessorCache
	out *edgeBuf
}

// edgeBuf holds the edges one or more enumerations emitted, flat: their
// label ids and, with a cache, their successors' cache ids, aligned;
// without a cache, the successor states instead.
type edgeBuf struct {
	labels, ids []uint32
	states      []State
}

// reset empties b, keeping its arrays.
func (b *edgeBuf) reset() {
	b.labels, b.ids = b.labels[:0], b.ids[:0]
	clear(b.states)
	b.states = b.states[:0]
}

// Probe returns the id and the canonical state filed under key, or
// ok == false when none is (always, for a Prober without a cache).
//
//lint:hotpath
func (p Prober) Probe(key []byte) (id uint32, x State, ok bool) {
	if p.c == nil {
		return 0, nil, false
	}
	if id, ok = p.c.index.Get(key); !ok {
		return 0, nil, false
	}
	return id, p.c.StateOf(id), true
}

// Intern files x, a state built after Probe(key) missed, under key and
// returns its id and canonical state. Another worker may have filed an
// equal state first; its id and state are returned then. A Prober without
// a cache files nothing and returns x itself.
func (p Prober) Intern(key []byte, x State) (uint32, State) {
	if p.c == nil {
		return 0, x
	}
	id := p.c.insert(key, x)
	return id, p.c.StateOf(id)
}

// Emit records the next edge of the enumeration: the action with label id
// label leads to x, filed under id (as Probe or Intern returned them).
// With a cache the Prober keeps the two ids; without one, the label id and
// x. The zero Prober keeps nothing.
func (p Prober) Emit(label, id uint32, x State) {
	b := p.out
	if b == nil {
		return
	}
	b.labels = append(b.labels, label)
	if p.c != nil {
		b.ids = append(b.ids, id)
	} else {
		b.states = append(b.states, x)
	}
}

// SuccessorFunc adapts a function to the Successor interface.
type SuccessorFunc func(State) []Succ

var _ Successor = (SuccessorFunc)(nil)

// Successors implements Successor.
func (f SuccessorFunc) Successors(x State) []Succ { return f(x) }

// Model couples a successor function with its set of initial states. For a
// system for consensus, Inits is exactly Con_0: one initial state per binary
// input assignment, with the environment in the same local state in all of
// them.
type Model interface {
	Successor

	// Inits enumerates the initial states, in a deterministic order.
	Inits() []State

	// Name identifies the model/layering (e.g. "mobile/S1", "shmem/Srw").
	Name() string
}

// Step is one transition of an execution.
type Step struct {
	Action string
	State  State
}

// Execution is a finite execution: an initial state followed by labeled
// steps. The paper's runs are infinite; executions are the finite prefixes
// the framework manipulates and reports as witnesses.
type Execution struct {
	Init  State
	Steps []Step
}

// Last returns the final state of the execution.
func (e *Execution) Last() State {
	if len(e.Steps) == 0 {
		return e.Init
	}
	return e.Steps[len(e.Steps)-1].State
}

// Len returns the number of steps (layers) in the execution.
func (e *Execution) Len() int { return len(e.Steps) }

// States returns the state sequence of the execution, including the initial
// state, as a fresh slice.
func (e *Execution) States() []State {
	out := make([]State, 0, len(e.Steps)+1)
	out = append(out, e.Init)
	for _, s := range e.Steps {
		out = append(out, s.State)
	}
	return out
}

// Actions returns the action-label sequence of the execution as a fresh
// slice.
func (e *Execution) Actions() []string {
	out := make([]string, 0, len(e.Steps))
	for _, s := range e.Steps {
		out = append(out, s.Action)
	}
	return out
}

// Extend returns a new execution with one more step appended; the receiver
// is not modified.
func (e *Execution) Extend(action string, to State) *Execution {
	steps := make([]Step, 0, len(e.Steps)+1)
	steps = append(steps, e.Steps...)
	steps = append(steps, Step{Action: action, State: to})
	return &Execution{Init: e.Init, Steps: steps}
}

// WithInits returns m with its initial states replaced by inits: the same
// successor function, name and successor cache, and the runs from inits
// only (a multivalued Con_0, one suspicious input assignment).
func WithInits(m Model, inits []State) Model {
	return &withInits{Model: m, inits: inits, cache: CacheOf(m)}
}

type withInits struct {
	Model
	inits []State
	cache *SuccessorCache // m's, or a private one when m has none
}

// Inits implements Model.
func (w *withInits) Inits() []State { return append([]State(nil), w.inits...) }

// Cache advertises m's successor cache through the CacheOf protocol, so
// the restricted model shares m's enumeration work.
func (w *withInits) Cache() *SuccessorCache { return w.cache }
