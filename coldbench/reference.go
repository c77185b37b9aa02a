package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference is a fixed computation of the same kind as the samples': a
// breadth-first exploration of FloodSet in a model where, each round, the
// messages of one process j to the processes 0..k-1 are lost. Local states
// are strings "round|v,v,..." that each step parses, merges and re-encodes,
// and global states are interned by their key in lock-striped maps by
// GOMAXPROCS workers, as the repository's models and explorer do. It is
// written here and uses no code of the repository, so it does the same work
// at every commit.
//
// The harness runs it in a child of its own just before every end-to-end
// sample and reports the sample's times in units of its time. A host that
// slows down, because other tenants take its cores, caches or memory
// bandwidth, slows the reference and the sample together, and the ratio
// stays. It tracks the samples only as well as its work resembles theirs,
// which is why it parses and builds strings rather than only hashing (see
// CALIBRATION.md).
const (
	refProcs  = 6
	refValues = 5 // inputs are 0..refValues-1, process 0's fixed to 0
	refDepth  = 2
	refShards = 64
	// refStates and refEdges are what the exploration must find; a
	// reference run that finds other counts fails.
	refStates = 4267
	refEdges  = 136752
	// refHostS is the reference's median wall time at GOMAXPROCS=2 on the
	// calibration host (CALIBRATION.md); setup_s is reported in its seconds.
	refHostS = 0.33
)

func parseLocal(l string) (round int, w []int) {
	bar := strings.IndexByte(l, '|')
	round, _ = strconv.Atoi(l[:bar])
	return round, appendValues(w, l[bar+1:])
}

func appendValues(w []int, s string) []int {
	for _, f := range strings.Split(s, ",") {
		v, _ := strconv.Atoi(f)
		w = append(w, v)
	}
	return w
}

func encodeLocal(round int, w []int) string {
	sort.Ints(w)
	var b strings.Builder
	b.WriteString(strconv.Itoa(round))
	b.WriteByte('|')
	for i, v := range w {
		if i > 0 && v == w[i-1] {
			continue
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// refStep runs one round from locals in which the messages of process j to
// the processes 0..k-1 are lost; every process floods its set of values.
func refStep(locals []string, j, k int) []string {
	next := make([]string, len(locals))
	for to := range locals {
		round, w := parseLocal(locals[to])
		for from, l := range locals {
			if from == to || (from == j && to < k) {
				continue
			}
			w = appendValues(w, l[strings.IndexByte(l, '|')+1:])
		}
		next[to] = encodeLocal(round+1, w)
	}
	return next
}

// reference runs the reference exploration and returns the number of
// states and edges it found and its wall time.
func reference() (states, edges int, d time.Duration) {
	start := time.Now()
	workers := runtime.GOMAXPROCS(0)
	type shard struct {
		sync.Mutex
		m map[string]struct{}
	}
	shards := make([]shard, refShards)
	for i := range shards {
		shards[i].m = make(map[string]struct{})
	}
	var layer [][]string
	inits := 1
	for i := 1; i < refProcs; i++ {
		inits *= refValues
	}
	for a := 0; a < inits; a++ {
		locals := make([]string, refProcs)
		locals[0] = encodeLocal(0, []int{0})
		for i, v := 1, a; i < refProcs; i, v = i+1, v/refValues {
			locals[i] = encodeLocal(0, []int{v % refValues})
		}
		layer = append(layer, locals)
	}
	states = len(layer)
	for depth := 0; depth < refDepth; depth++ {
		found := make([][][]string, workers)
		counted := make([]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(layer); i += workers {
					// k = 0 loses nothing, so it is one action for all j.
					for j := 0; j < refProcs; j++ {
						for k := 0; k <= refProcs; k++ {
							if k == 0 && j > 0 {
								continue
							}
							y := refStep(layer[i], j, k)
							key := strings.Join(y, ";")
							h := uint32(2166136261) // FNV-1a
							for c := 0; c < len(key); c++ {
								h = (h ^ uint32(key[c])) * 16777619
							}
							s := &shards[h%refShards]
							s.Lock()
							_, seen := s.m[key]
							if !seen {
								s.m[key] = struct{}{}
							}
							s.Unlock()
							counted[w]++
							if !seen {
								found[w] = append(found[w], y)
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		layer = nil
		for w, f := range found {
			layer = append(layer, f...)
			edges += counted[w]
		}
		states += len(layer)
	}
	return states, edges, time.Since(start)
}

// refReport is what a reference child prints: its wall time.
type refReport struct {
	RefS float64 `json:"ref_s"`
}

func refMain() int {
	states, edges, d := reference()
	if states != refStates || edges != refEdges {
		fmt.Fprintf(os.Stderr, "reference found %d states and %d edges, want %d and %d\n", states, edges, refStates, refEdges)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(refReport{RefS: d.Seconds()}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
