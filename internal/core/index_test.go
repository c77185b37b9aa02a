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
)

// TestIndexConcurrentIntern races GOMAXPROCS (at least 4) goroutines over
// one Index. Each visits every key but its own residue class, starting at
// its own offset and half of them in reverse order, so each key is
// contended by all but one goroutine. A goroutine Gets each key, Interns
// it on a miss, and Interns every third key even on a hit. Every key's mk
// must run exactly once, with the key it is filed under, and every
// goroutine must read the value filed there.
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
					v = x.Intern(buf, func(key string) uint32 {
						if key != strconv.Itoa(k) {
							t.Errorf("key %d: mk got key %q", k, key)
						}
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
