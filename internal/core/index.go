package core

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Index is an append-only, hash-sharded map from byte strings to uint32
// values. Keys are spread over a power-of-two number of shards by a seeded
// hash, and each shard is one map guarded by its own mutex: a lookup or an
// insert locks one shard, and a lookup allocates nothing. The successor
// cache files its states in one; the message-passing models file their
// local states, messages, Deliver and Receive results and asynchronous
// records in others, sized to what they hold.
//
// The zero Index is not usable; call NewIndex.
type Index struct {
	// seed keys the shard hash; shard placement is per-process random but
	// never observable.
	seed   maphash.Seed
	mask   uint64
	shards []internShard
}

// internShard is one lock-striped slice of an Index.
type internShard struct {
	mu sync.Mutex
	// m is the shard's key -> value table, guarded by mu.
	m map[string]uint32
	// Pad shards onto separate cache lines; the mutexes are the contended
	// words.
	_ [48]byte
}

// NewIndex returns an empty index with 1<<shardBits shards. An index
// that stays small wants few.
func NewIndex(shardBits int) *Index {
	x := &Index{}
	x.init(shardBits)
	return x
}

func (x *Index) init(shardBits int) {
	x.seed = maphash.MakeSeed()
	x.shards = make([]internShard, 1<<shardBits)
	x.mask = uint64(len(x.shards) - 1)
}

// Get returns the value filed under key, looked up under its shard's
// mutex.
//
//lint:hotpath
func (x *Index) Get(key []byte) (uint32, bool) {
	sh := x.shard(key)
	sh.mu.Lock()
	v, ok := sh.m[string(key)]
	sh.mu.Unlock()
	return v, ok
}

// shard returns key's shard.
//
//lint:hotpath
func (x *Index) shard(key []byte) *internShard {
	return &x.shards[maphash.Bytes(x.seed, key)&x.mask]
}

// Intern returns the value filed under key, filing mk's result there
// first if the key is absent. mk runs under the key's shard mutex, at most
// once per key, and receives the key as the string the index keeps; it
// must not touch the index's other shards. Callers intern after Get
// missed, so the key string it builds is almost never wasted.
func (x *Index) Intern(key []byte, mk func(key string) uint32) uint32 {
	return x.shard(key).intern(string(key), mk)
}

// intern is Intern on the key's shard, for a key already a string.
func (sh *internShard) intern(key string, mk func(key string) uint32) uint32 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[key]; ok {
		return v
	}
	if sh.m == nil {
		sh.m = make(map[string]uint32, 8)
	}
	v := mk(key)
	sh.m[key] = v
	return v
}

// Slots is an append-only array indexed by dense uint32 ids. It grows in
// chunks of geometrically increasing size, chunk c holding chunkMin<<c
// slots, and the chunk directory is republished atomically on growth, so
// a slot never moves and readers index it with one atomic load and no
// lock.
type Slots[T any] struct {
	dir atomic.Pointer[[][]T]
	mu  sync.Mutex // serializes growth only
}

// slotLoc splits a dense id into its chunk coordinates: chunk c covers ids
// [chunkMin*(2^c - 1), chunkMin*(2^(c+1) - 1)).
func slotLoc(id uint32) (chunk, off uint32) {
	x := (id >> chunkMinBits) + 1
	chunk = uint32(bits.Len32(x)) - 1
	base := (uint32(1)<<chunk - 1) << chunkMinBits
	return chunk, id - base
}

// At returns the slot of id. The id must have been handed out after Grow
// returned its slot, through some synchronized path, which makes the
// chunk and the slot's contents visible.
//
//lint:hotpath
func (s *Slots[T]) At(id uint32) *T {
	chunk, off := slotLoc(id)
	return &(*s.dir.Load())[chunk][off]
}

// Grow returns the slot of id, growing the directory if id is the first of
// a new chunk. Lock order: Grow's mutex nests inside any caller's lock and
// inside nothing else.
func (s *Slots[T]) Grow(id uint32) *T {
	chunk, off := slotLoc(id)
	if d := s.dir.Load(); d != nil && int(chunk) < len(*d) {
		return &(*d)[chunk][off]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur [][]T
	if d := s.dir.Load(); d != nil {
		cur = *d
	}
	for int(chunk) >= len(cur) {
		next := make([][]T, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = make([]T, chunkMin<<uint(len(cur)))
		s.dir.Store(&next)
		cur = next
	}
	return &cur[chunk][off]
}
