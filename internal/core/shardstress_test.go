package core_test

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
)

// stressDepth bounds the BFS walks the stress goroutines perform; every
// state within it ends up interned and enumerated, so the final table is
// model-determined regardless of interleaving.
const stressDepth = 3

func stressModel() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }

// bfsWalk drives c through a breadth-first walk of m to depth layers,
// visiting each layer's frontier starting at offset rot (so goroutines hit
// the shards in different orders), and exercising the whole read surface —
// ID, Enumerate, StateOf, KeyOf, Len, Stats — along the way.
func bfsWalk(t *testing.T, c *core.SuccessorCache, m core.Model, depth, rot int) {
	type node struct {
		id uint32
		x  core.State
	}
	seen := make(map[uint32]bool)
	var frontier []node
	for _, x := range m.Inits() {
		id := c.ID(x)
		if !seen[id] {
			seen[id] = true
			frontier = append(frontier, node{id, x})
		}
	}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []node
		for i := range frontier {
			it := frontier[(i+rot)%len(frontier)]
			if (i+rot)%2 == 1 {
				// Re-deriving the id from the state's key must agree with
				// the one we already hold.
				if again := c.ID(it.x); again != it.id {
					t.Errorf("ID re-interned %q as %d, had %d", it.x.Key(), again, it.id)
					return
				}
			}
			succs, ids := c.Enumerate(it.x)
			for j := range succs {
				if !seen[ids[j]] {
					seen[ids[j]] = true
					next = append(next, node{ids[j], succs[j].State})
				}
				if c.KeyOf(ids[j]) != succs[j].State.Key() {
					t.Errorf("KeyOf(%d) does not match successor key", ids[j])
					return
				}
			}
			if i%7 == 0 {
				if got := c.StateOf(it.id); got.Key() != it.x.Key() {
					t.Errorf("StateOf(%d) returned a different state", it.id)
					return
				}
			}
			if i%13 == 0 {
				st := c.Stats()
				if st.States > 0 && c.Len() < 1 {
					t.Error("Len went backwards")
					return
				}
			}
		}
		frontier = next
	}
}

// internTable flattens a cache into key -> "action->toKey" rows by walking
// the model BFS (not the id space, which would enumerate past the walked
// depth), so two caches are comparable regardless of id assignment order.
func internTable(c *core.SuccessorCache, m core.Model, depth int) map[string][]string {
	type node struct {
		id uint32
		x  core.State
	}
	table := make(map[string][]string)
	seen := make(map[uint32]bool)
	var frontier []node
	for _, x := range m.Inits() {
		id := c.ID(x)
		if !seen[id] {
			seen[id] = true
			frontier = append(frontier, node{id, x})
		}
	}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []node
		for _, it := range frontier {
			succs, ids := c.Enumerate(it.x)
			row := make([]string, 0, len(succs))
			for j := range succs {
				row = append(row, succs[j].Action+"->"+succs[j].State.Key())
				if !seen[ids[j]] {
					seen[ids[j]] = true
					next = append(next, node{ids[j], succs[j].State})
				}
			}
			table[c.KeyOf(it.id)] = row
		}
		frontier = next
	}
	return table
}

// refTable is internTable's reference twin: the same breadth-first walk
// over the raw successor function with a plain key set, no cache at all.
// It returns the table and the set of keys the walk reached.
func refTable(raw core.Successor, m core.Model, depth int) (map[string][]string, map[string]bool) {
	table := make(map[string][]string)
	seen := make(map[string]bool)
	var frontier []core.State
	for _, x := range m.Inits() {
		if k := x.Key(); !seen[k] {
			seen[k] = true
			frontier = append(frontier, x)
		}
	}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []core.State
		for _, x := range frontier {
			succs := raw.Successors(x)
			row := make([]string, 0, len(succs))
			for _, s := range succs {
				k := s.State.Key()
				row = append(row, s.Action+"->"+k)
				if !seen[k] {
					seen[k] = true
					next = append(next, s.State)
				}
			}
			table[x.Key()] = row
		}
		frontier = next
	}
	return table, seen
}

// TestShardedCacheStress hammers one sharded cache from GOMAXPROCS (at
// least 4) goroutines running interleaved BFS walks in different orders,
// then asserts the final intern table — the key set and every key's ordered
// successor list — matches a serial cache-free walk of the raw successor
// function. Run under -race (the race target covers ./internal/...), this
// is the data-race certificate for the cache's concurrent paths: interning
// under the shard locks, the lock-free entry reads and the enumeration
// counter. It hammers
// a second model instance's own key-first cache, whose local-state table
// the walks share (and to which m's initial states are foreign).
func TestShardedCacheStress(t *testing.T) {
	m := stressModel()
	raw := core.CacheOf(m).Uncached()
	t.Run("keyed", func(t *testing.T) { stressCache(t, m, raw, core.CacheOf(stressModel())) })
}

func stressCache(t *testing.T, m core.Model, raw core.Successor, sharded *core.SuccessorCache) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rot int) {
			defer wg.Done()
			bfsWalk(t, sharded, m, stressDepth, rot)
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want, wantKeys := refTable(raw, m, stressDepth)
	got := internTable(sharded, m, stressDepth)
	if len(want) != len(got) {
		t.Fatalf("intern table size: sharded %d, reference %d", len(got), len(want))
	}
	for k, row := range want {
		grow, ok := got[k]
		if !ok {
			t.Fatalf("sharded cache missing key %q", k)
		}
		if len(grow) != len(row) {
			t.Fatalf("key %q: %d successors, want %d", k, len(grow), len(row))
		}
		for i := range row {
			if grow[i] != row[i] {
				t.Fatalf("key %q successor %d: %q, want %q", k, i, grow[i], row[i])
			}
		}
	}
	if sharded.Len() != len(wantKeys) {
		t.Fatalf("interned %d states, reference %d", sharded.Len(), len(wantKeys))
	}

	// Nothing memoizes an enumeration: each walk, and internTable's,
	// enumerated every state it expanded once, and no exploration reused a
	// graph.
	enums := (workers + 1) * len(want)
	if st := sharded.Stats(); st.Enumerations != enums || st.Hits != 0 || st.States != len(wantKeys) {
		t.Fatalf("stats %+v, want %d enumerations, 0 hits and %d states", st, enums, len(wantKeys))
	}
}

// TestShardedCacheKeySet pins that the sorted key set of a serially used
// sharded cache equals the reference walk's — the single-goroutine face of
// the stress property, cheap enough to run everywhere.
func TestShardedCacheKeySet(t *testing.T) {
	m := stressModel()
	raw := core.CacheOf(m).Uncached()
	sharded := core.CacheOf(stressModel())
	internTable(sharded, m, stressDepth)
	_, wantKeys := refTable(raw, m, stressDepth)
	got := make([]string, sharded.Len())
	for i := range got {
		got[i] = sharded.KeyOf(uint32(i))
	}
	want := make([]string, 0, len(wantKeys))
	for k := range wantKeys {
		want = append(want, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("key sets differ: sharded %d keys, reference %d", len(got), len(want))
	}
}
