package core_test

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/shmem"
)

// TestIndexConcurrentIntern races GOMAXPROCS (at least 4) goroutines over
// one Index. Each visits every key but its own residue class, starting at
// its own offset and half of them in reverse order, so each key is
// contended by all but one goroutine. A goroutine Gets each key, Interns
// it on a miss, and Interns every third key even on a hit. Every key's mk
// must run exactly once, and every goroutine must read the value filed
// there.
func TestIndexConcurrentIntern(t *testing.T) {
	for _, bits := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", 1<<bits), func(t *testing.T) {
			raceIndex(t, core.NewIndex(bits))
		})
	}
}

func raceIndex(t *testing.T, x *core.Index) {
	const keys = 4096
	const unvisited = math.MaxUint32
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var next atomic.Uint32
	calls := make([]atomic.Int32, keys)
	read := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		read[w] = make([]uint32, keys)
		wg.Add(1)
		go func(w int, got []uint32) {
			defer wg.Done()
			var buf []byte
			for j := 0; j < keys; j++ {
				k := (j + w*keys/workers) % keys
				if w%2 == 1 {
					k = keys - 1 - k
				}
				if k%workers == w {
					got[k] = unvisited
					continue
				}
				buf = strconv.AppendInt(buf[:0], int64(k), 10)
				v, ok := x.Get(buf)
				if !ok || k%3 == 0 {
					v = x.Intern(buf, func() uint32 {
						calls[k].Add(1)
						return next.Add(1) - 1
					})
				}
				got[k] = v
			}
		}(w, read[w])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	filed := make(map[uint32]int, keys)
	for k := 0; k < keys; k++ {
		if n := calls[k].Load(); n != 1 {
			t.Fatalf("key %d: mk ran %d times, want once", k, n)
		}
		want, ok := x.Get([]byte(strconv.Itoa(k)))
		if !ok {
			t.Fatalf("key %d not filed", k)
		}
		if prev, dup := filed[want]; dup {
			t.Fatalf("value %d filed under keys %d and %d", want, prev, k)
		}
		filed[want] = k
		for w := range read {
			if got := read[w][k]; got != unvisited && got != want {
				t.Fatalf("goroutine %d read %d under key %d, filed %d", w, got, k, want)
			}
		}
	}
	if n := next.Load(); n != keys {
		t.Fatalf("mk ran %d times over %d keys", n, keys)
	}
}

// TestIndexGrowthUnderReaders files keys one at a time into an empty
// index, which takes every shard through every growth, while readers Get
// the keys whose Intern has already returned: none may be missed, and each
// read must be the value filed.
func TestIndexGrowthUnderReaders(t *testing.T) {
	for _, bits := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", 1<<bits), func(t *testing.T) {
			growUnderReaders(t, core.NewIndex(bits))
		})
	}
}

// growUnderReaders runs two writers, each filing its residue class of the
// keys in order under the key's own number, against two readers that
// re-read every key filed so far, newest first, until the writers finish.
func growUnderReaders(t *testing.T, x *core.Index) {
	const keys = 1 << 13
	const writers, readers = 2, 2
	var filed [writers]atomic.Int64 // keys of the class whose Intern returned
	var writing atomic.Int32
	writing.Store(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			var buf []byte
			for i := 0; w+i*writers < keys; i++ {
				k := w + i*writers
				buf = strconv.AppendInt(buf[:0], int64(k), 10)
				if v := x.Intern(buf, func() uint32 { return uint32(k) }); v != uint32(k) {
					t.Errorf("Intern(%d) = %d", k, v)
					return
				}
				filed[w].Store(int64(i + 1))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				last := writing.Load() == 0
				for w := range filed {
					for i := int(filed[w].Load()) - 1; i >= 0; i-- {
						k := w + i*writers
						buf = strconv.AppendInt(buf[:0], int64(k), 10)
						if v, ok := x.Get(buf); !ok || v != uint32(k) {
							t.Errorf("Get(%d) after its Intern returned = %d, %v", k, v, ok)
							return
						}
					}
				}
				if last {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIndexKeyStorage pins where the successor cache's index keeps its
// keys: a cache files each state's cache key (the shared-memory and mobile
// models' id tuples) once.
func TestIndexKeyStorage(t *testing.T) {
	for _, m := range []interface {
		core.Model
		AppendCacheKey(dst []byte, x core.State) []byte
	}{shmem.New(protocols.SMVote{Phases: 1}, 3), mobile.New(protocols.FloodSet{Rounds: 3}, 3)} {
		if _, err := core.ExploreIDCtx(nil, m, 3, 0, 1); err != nil {
			t.Fatal(err)
		}
		c := core.CacheOf(m)
		want := 0
		for id := 0; id < c.Len(); id++ {
			want += len(m.AppendCacheKey(nil, c.StateOf(uint32(id))))
		}
		if keys := core.IndexKeyBytes(c); keys != want {
			t.Fatalf("%s: the index keeps %d key bytes, want %d over %d states", m.Name(), keys, want, c.Len())
		}
	}
}
