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
// ID, SuccessorsID, SuccessorsOf, StateOf, KeyOf, Len, Stats — along the
// way.
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
			var succs []core.Succ
			var ids []uint32
			if (i+rot)%2 == 0 {
				succs, ids = c.SuccessorsOf(it.id, it.x)
			} else {
				// The SuccessorsID path re-derives the id from the state's
				// key; it must agree with the one we already hold.
				var again uint32
				again, succs, ids = c.SuccessorsID(it.x)
				if again != it.id {
					t.Errorf("SuccessorsID re-interned %q as %d, had %d", it.x.Key(), again, it.id)
					return
				}
			}
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
			succs, ids := c.SuccessorsOf(it.id, it.x)
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
// is the data-race certificate for the lock-free read paths.
func TestShardedCacheStress(t *testing.T) {
	m := stressModel()
	raw := core.CacheOf(m).Uncached()
	sharded := core.NewSuccessorCache(raw)

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

	// The stripes' counters must be coherent: first-writer-wins means each
	// entry's enumeration is counted exactly once, so the total is the
	// number of states the walks expanded, and the per-shard breakdown sums
	// to the totals.
	st := sharded.Stats()
	if st.Enumerations != len(want) {
		t.Fatalf("enumerations %d, reference %d expanded states", st.Enumerations, len(want))
	}
	if st.Shards != len(st.PerShard) {
		t.Fatalf("Shards %d but PerShard has %d rows", st.Shards, len(st.PerShard))
	}
	var hits, enums int64
	states := 0
	for _, sc := range st.PerShard {
		hits += sc.Hits
		enums += sc.Enumerations
		states += sc.States
	}
	if hits != st.Hits || int(enums) != st.Enumerations || states != st.States {
		t.Fatalf("per-shard sums (%d,%d,%d) disagree with totals (%d,%d,%d)",
			states, hits, enums, st.States, st.Hits, st.Enumerations)
	}
	if st.Hits == 0 {
		t.Fatal("concurrent walks produced no memoized hits")
	}
}

// TestShardedCacheKeySet pins that the sorted key set of a serially used
// sharded cache equals the reference walk's — the single-goroutine face of
// the stress property, cheap enough to run everywhere.
func TestShardedCacheKeySet(t *testing.T) {
	m := stressModel()
	raw := core.CacheOf(m).Uncached()
	sharded := core.NewSuccessorCache(raw)
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
