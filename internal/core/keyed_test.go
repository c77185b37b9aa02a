package core_test

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// ringState is a one-process state holding a number; appendKey, when set,
// replaces its AppendKey to plant a divergence.
type ringState struct {
	v         int
	appendKey func(dst []byte) []byte
}

func (s *ringState) N() int                  { return 1 }
func (s *ringState) Key() string             { return "v" + strconv.Itoa(s.v) }
func (s *ringState) EnvKey() string          { return "" }
func (s *ringState) Local(int) string        { return s.Key() }
func (s *ringState) Decided(int) (int, bool) { return core.Undecided, false }
func (s *ringState) FailedAt(int) bool       { return false }
func (s *ringState) AppendKey(dst []byte) []byte {
	if s.appendKey != nil {
		return s.appendKey(dst)
	}
	return append(dst, s.Key()...)
}

// ring is a keyed model over the numbers mod size: v's successors are
// v+1 .. v+fan. Its cache key is the number as one byte; skew, when set,
// makes it build a successor other than the one it probed for.
type ring struct {
	size, fan int
	skew      bool
	builds    atomic.Int64
}

func (r *ring) AppendCacheKey(dst []byte, x core.State) []byte {
	return append(dst, byte(x.(*ringState).v))
}

// Labels labels the successor v+d with "+d", at index d-1.
func (r *ring) Labels() []string {
	labels := make([]string, r.fan)
	for d := range labels {
		labels[d] = "+" + strconv.Itoa(d+1)
	}
	return labels
}

func (r *ring) SuccessorsKeyed(x core.State, p core.Prober) {
	v := x.(*ringState).v
	for d := 1; d <= r.fan; d++ {
		w := (v + d) % r.size
		key := []byte{byte(w)}
		id, st, ok := p.Probe(key)
		if !ok {
			r.builds.Add(1)
			built := w
			if r.skew {
				built = (w + 1) % r.size
			}
			id, st = p.Intern(key, &ringState{v: built})
		}
		p.Emit(uint32(d-1), id, st)
	}
}

// TestKeyedCacheBuildsOnlyMisses: exploring through a keyed cache builds
// each distinct successor once, while the raw function, the same
// enumeration against a prober that always misses, builds every one.
func TestKeyedCacheBuildsOnlyMisses(t *testing.T) {
	r := &ring{size: 10, fan: 3}
	c := core.NewKeyedCache(r)
	frontier := []core.State{&ringState{v: 0}}
	c.ID(frontier[0])
	seen := map[string]bool{"v0": true}
	edges := 0
	for len(frontier) > 0 {
		x := frontier[0]
		frontier = frontier[1:]
		succs, ids := c.Enumerate(x)
		for i, s := range succs {
			edges++
			if c.StateOf(ids[i]) != s.State || c.KeyOf(ids[i]) != s.State.Key() {
				t.Fatalf("successor %s is not the state filed under its id", s.State.Key())
			}
			if !seen[s.State.Key()] {
				seen[s.State.Key()] = true
				frontier = append(frontier, s.State)
			}
		}
	}
	if len(seen) != 10 || edges != 30 {
		t.Fatalf("%d states and %d edges, want 10 and 30", len(seen), edges)
	}
	if got := r.builds.Load(); got != 9 {
		t.Errorf("%d successors built, want 9 (every state but the root, once)", got)
	}
	r.builds.Store(0)
	if n := len(c.Uncached().Successors(&ringState{v: 4})); n != 3 || r.builds.Load() != 3 {
		t.Errorf("raw enumeration: %d successors, %d built; want 3 and 3", n, r.builds.Load())
	}
}

// TestCacheRejectsDivergentKeys: interning a state that would not be found
// again under its key panics — a plain state whose AppendKey differs from
// its Key, and a keyed model's state whose cache key differs from the key
// it was probed under.
func TestCacheRejectsDivergentKeys(t *testing.T) {
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one mentioning %q", what, msg, want)
			}
		}()
		f()
	}
	plain := core.NewSuccessorCache(core.SuccessorFunc(func(core.State) []core.Succ { return nil }))
	bad := &ringState{v: 1, appendKey: func(dst []byte) []byte { return append(dst, "w1"...) }}
	mustPanic("plain", "AppendKey diverged from Key", func() { plain.ID(bad) })
	keyed := core.NewKeyedCache(&ring{size: 10, fan: 2, skew: true})
	root := &ringState{v: 0}
	mustPanic("keyed", "cache key diverged", func() { keyed.Enumerate(root) })
}
