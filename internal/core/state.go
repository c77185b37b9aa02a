package core

import "sync"

// Undecided is the sentinel returned by decision accessors when a process's
// write-once decision variable d_i is still ⊥.
const Undecided = -1

// InitMemo caches a model's Con_0 across Inits calls. States are
// immutable, so the cached values are shared; Get hands each caller a
// fresh slice header over them, keeping the returned slice safe to append
// to or reorder. Models embed one per value — building Con_0 constructs
// 2^n states, which on a memoized re-exploration would otherwise cost more
// than the exploration itself.
type InitMemo struct {
	once sync.Once
	xs   []State
}

// Get returns Con_0 of n processes: initial(inputs) for every binary input
// assignment, in binary counting order (process 0 is the least significant
// bit), built once per memo (concurrent first callers block until the
// build finishes).
func (m *InitMemo) Get(n int, initial func(inputs []int) State) []State {
	m.once.Do(func() {
		m.xs = make([]State, 0, 1<<uint(n))
		for a := 0; a < 1<<uint(n); a++ {
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = (a >> uint(i)) & 1
			}
			m.xs = append(m.xs, initial(inputs))
		}
	})
	return append([]State(nil), m.xs...)
}

// State is a global state of a distributed system: a local state for each of
// the n processes plus a local state for the environment. The environment
// captures everything that is not process-local — messages in transit, the
// contents of shared variables, and (in the t-resilient synchronous model)
// the record of which processes have failed.
//
// Implementations must be immutable: every accessor must return the same
// answer for the lifetime of the value, and transitions must produce fresh
// State values.
type State interface {
	// N returns the number of processes (the paper assumes n >= 2).
	N() int

	// Key returns a canonical encoding of the entire global state. Two
	// states of the same model are equal exactly if their Keys are equal.
	Key() string

	// EnvKey returns a canonical encoding of the environment's local state.
	EnvKey() string

	// Local returns a canonical encoding of process i's local state, for
	// 0 <= i < N(). Two states agree modulo j exactly if their EnvKeys are
	// equal and their Locals are equal for every i != j.
	Local(i int) string

	// Decided reports process i's write-once decision variable: the decided
	// value and true, or (Undecided, false) if i has not decided.
	Decided(i int) (int, bool)

	// FailedAt reports whether process i is failed at this state, i.e.
	// faulty in every run of the system in which the state appears. Models
	// that display "no finite failure" (the asynchronous ones and M^mf)
	// always return false.
	FailedAt(i int) bool
}

// Input is implemented by states that remember the consensus inputs the run
// started from; the validity requirement is checked against these.
type Input interface {
	// InputOf returns process i's initial value.
	InputOf(i int) int
}

// KeyAppender is the allocation-free side of the canonical-key contract.
// AppendKey appends exactly the bytes of Key() to dst and returns the
// extended slice, so hot paths (the successor cache's intern lookups) can
// build keys into reusable buffers instead of materializing a string per
// visit. Implementations that precompute and store their key satisfy it by
// appending the cached string; implementations that derive the key lazily
// should encode directly into dst. All State implementations should provide
// it — the engine falls back to Key() through AppendKeyOf otherwise, which
// works but forfeits the zero-allocation path for lazily-keyed states.
type KeyAppender interface {
	AppendKey(dst []byte) []byte
}

// AppendKeyOf appends x's canonical key to dst: through AppendKey when x
// provides it, through a Key() fallback shim otherwise. The result must be
// byte-identical either way; the successor cache checks the two agree when
// it first interns a state.
//
//lint:hotpath
func AppendKeyOf(x State, dst []byte) []byte {
	if a, ok := x.(KeyAppender); ok {
		return a.AppendKey(dst)
	}
	return append(dst, x.Key()...)
}

// AgreeModulo reports whether x and y agree modulo j: their environments are
// equal and the local states of every process other than j are equal.
func AgreeModulo(x, y State, j int) bool {
	if x.N() != y.N() {
		return false
	}
	if x.EnvKey() != y.EnvKey() {
		return false
	}
	for i := 0; i < x.N(); i++ {
		if i == j {
			continue
		}
		if x.Local(i) != y.Local(i) {
			return false
		}
	}
	return true
}

// Similar reports whether x ~s y per Definition 3.1: there is a process j
// such that x and y agree modulo j and some process i != j is non-failed in
// both x and y. It returns the witnessing j.
func Similar(x, y State) (j int, ok bool) {
	if x.N() != y.N() {
		return 0, false
	}
	n := x.N()
	for j := 0; j < n; j++ {
		if !AgreeModulo(x, y, j) {
			continue
		}
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			if !x.FailedAt(i) && !y.FailedAt(i) {
				return j, true
			}
		}
	}
	return 0, false
}

// DecidedValues returns the set of values decided by processes that are not
// failed at x, as a bitmask over {0,1,...}: bit v is set if some non-failed
// process has decided v. Only small non-negative values (v < 63) are
// representable, which covers every decision problem in this repository.
func DecidedValues(x State) uint64 {
	var mask uint64
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		if v, ok := x.Decided(i); ok && v >= 0 && v < 63 {
			mask |= 1 << uint(v)
		}
	}
	return mask
}

// AllDecided reports whether every process that is not failed at x has
// decided.
func AllDecided(x State) bool {
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			continue
		}
		if _, ok := x.Decided(i); !ok {
			return false
		}
	}
	return true
}

// FailedCount returns the number of processes failed at x.
func FailedCount(x State) int {
	c := 0
	for i := 0; i < x.N(); i++ {
		if x.FailedAt(i) {
			c++
		}
	}
	return c
}
