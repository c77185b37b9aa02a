package simplex

import (
	"encoding/binary"
	"math/bits"
)

// thickKernel decides k-thick connectivity of the complexes C_Δ′(I) that
// the Δ′ search asks about, without building them. Complex.ThickConnected
// reads only a complex's n-size simplexes (its tops), and the tops of the
// complex generated by some options are the n-size faces of those options.
// So the kernel interns every n-size face of every Δ option once, to a
// dense id, and precomputes the k-thick adjacency among them as bitset
// rows, one IntersectSize per pair. A complex is then a bitset of tops: a
// candidate Δ′ sets one row per input (the union of its chosen options),
// a subset I is the OR of its inputs' rows, and the verdict is a bitset
// BFS over the adjacency rows, memoized on the bitset. A kernel serves one
// search and is not safe for concurrent use.
type thickKernel struct {
	words int      // uint64 words per bitset of tops
	adj   []uint64 // row t (words wide): the tops sharing ≥ n−k vertices with top t
	// top[i] lists the tops of input i's options, option by option;
	// opt[i][j] is the option that top[i][j] is a face of.
	top, opt [][]int32
	subsets  []uint32 // the similarity-connected input subsets, as masks
	rows     []uint64 // one row per input: the tops of its chosen options
	union    []uint64 // the tops of the subset being decided
	seen     []uint64 // BFS visited set
	queue    []int32  // BFS queue, capacity one slot per top
	key      []byte   // memo key of the bitset being decided
	memo     map[string]bool
}

// newThickKernel interns the n-size faces of options[i][b] (Δ(s) for each
// input s) and builds their k-thick adjacency at dimension n, to decide
// the given input subsets.
func newThickKernel(n, k int, options [][]Simplex, subsets []uint32) *thickKernel {
	kn := &thickKernel{
		top:     make([][]int32, len(options)),
		opt:     make([][]int32, len(options)),
		subsets: subsets,
		memo:    make(map[string]bool),
	}
	ids := make(map[string]int32)
	var tops []Simplex
	add := func(i, b int, s Simplex) {
		id, ok := ids[s.Key()]
		if !ok {
			id = int32(len(tops))
			ids[s.Key()] = id
			tops = append(tops, s)
		}
		kn.top[i] = append(kn.top[i], id)
		kn.opt[i] = append(kn.opt[i], int32(b))
	}
	for i, opts := range options {
		kn.top[i] = make([]int32, 0, len(opts))
		kn.opt[i] = make([]int32, 0, len(opts))
		for b, o := range opts {
			if o.Size() == n {
				add(i, b, o) // already n-size: its own only top
				continue
			}
			for _, f := range o.Faces(n) {
				add(i, b, f)
			}
		}
	}
	need := n - k
	if need < 0 {
		need = 0
	}
	w := (len(tops) + 63) / 64
	kn.words = w
	kn.adj = make([]uint64, len(tops)*w)
	for a := range tops {
		for b := a + 1; b < len(tops); b++ {
			if tops[a].IntersectSize(tops[b]) >= need {
				kn.adj[a*w+b>>6] |= 1 << uint(b&63)
				kn.adj[b*w+a>>6] |= 1 << uint(a&63)
			}
		}
	}
	kn.rows = make([]uint64, len(options)*w)
	kn.union = make([]uint64, w)
	kn.seen = make([]uint64, w)
	kn.queue = make([]int32, 0, len(tops))
	kn.key = make([]byte, 0, 8*w)
	return kn
}

// connectedUnder reports whether the candidate Δ′ that choice selects
// makes the complex of every subset k-thick connected. Bit b of choice[i]
// selects option b of input i; a nil choice selects every option.
func (kn *thickKernel) connectedUnder(choice []uint64) bool {
	kn.choose(choice)
	for _, mask := range kn.subsets {
		if !kn.subsetConnected(mask) {
			return false
		}
	}
	return true
}

// choose sets each input's row to the tops of the options choice selects
// (see connectedUnder).
func (kn *thickKernel) choose(choice []uint64) {
	w := kn.words
	clear(kn.rows)
	for i, tops := range kn.top {
		row := kn.rows[i*w : (i+1)*w]
		for j, t := range tops {
			if choice == nil || choice[i]&(1<<uint(kn.opt[i][j])) != 0 {
				row[t>>6] |= 1 << uint(t&63)
			}
		}
	}
}

// subsetConnected reports whether the chosen tops of the inputs in mask
// are k-thick connected.
func (kn *thickKernel) subsetConnected(mask uint32) bool {
	w := kn.words
	clear(kn.union)
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		for x, v := range kn.rows[i*w : (i+1)*w] {
			kn.union[x] |= v
		}
	}
	return kn.verdict(kn.union)
}

// verdict returns connected(set), memoized on the bytes of set.
func (kn *thickKernel) verdict(set []uint64) bool {
	kn.key = kn.key[:0]
	for _, x := range set {
		kn.key = binary.LittleEndian.AppendUint64(kn.key, x)
	}
	if v, ok := kn.memo[string(kn.key)]; ok {
		return v
	}
	v := kn.connected(set)
	kn.memo[string(kn.key)] = v
	return v
}

// connected reports whether the tops in set induce a connected subgraph
// of the k-thick adjacency: a BFS from the lowest top of set that visits
// only tops of set. An empty or one-top set is connected. Each top enters
// the queue at most once, so the queue never outgrows its capacity.
//
//lint:hotpath
func (kn *thickKernel) connected(set []uint64) bool {
	seen := kn.seen
	clear(seen)
	queue := kn.queue[:0]
	for x, v := range set {
		if v != 0 {
			b := bits.TrailingZeros64(v)
			seen[x] = 1 << uint(b)
			queue = append(queue, int32(x*64+b))
			break
		}
	}
	for head := 0; head < len(queue); head++ {
		t := int(queue[head])
		for x, v := range kn.adj[t*kn.words : (t+1)*kn.words] {
			fresh := v & set[x] &^ seen[x]
			seen[x] |= fresh
			for ; fresh != 0; fresh &= fresh - 1 {
				queue = append(queue, int32(x*64+bits.TrailingZeros64(fresh)))
			}
		}
	}
	for x, v := range set {
		if seen[x] != v {
			return false
		}
	}
	return true
}
