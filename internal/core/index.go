package core

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Index is an append-only, hash-sharded map from byte strings to uint32
// values. Keys are spread over a power-of-two number of shards by a seeded
// hash, each guarded by its own mutex, and every shard also publishes a
// read-only snapshot of its table through an atomic pointer, so a lookup
// of a published key takes no lock and allocates nothing. Inserts lock one
// shard. The successor cache files its states in one; the message-passing
// models file their local states, messages, Deliver and Receive results
// and asynchronous records in others, sized to what they hold.
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
	// dirty is the authoritative key -> value table, guarded by mu.
	dirty map[string]uint32
	// clean is the atomically published read-path snapshot of dirty. It is
	// immutable after publication; lock-free lookups read it with one
	// atomic load. Republished when dirty doubles past the last snapshot
	// (amortized O(n) total copying) and by Publish at pass boundaries.
	clean atomic.Pointer[map[string]uint32]
	// published is len(dirty) at the last publication.
	published int
	// pend mirrors len(dirty) - published (maintained under mu, read
	// atomically) so Publish can skip untouched shards without locking.
	pend atomic.Int32
	// Pad shards onto separate cache lines; the mutexes and snapshot
	// pointers are the contended words.
	_ [32]byte
}

// NewIndex returns an empty index with 1<<shardBits shards. Every shard
// publishes its own snapshots, so an index that stays small wants few.
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

// Get returns the value filed under key. A key in its shard's published
// snapshot costs one atomic load; a key filed since then is found under
// the shard's mutex.
//
//lint:hotpath
func (x *Index) Get(key []byte) (uint32, bool) {
	sh := x.shard(key)
	if v, ok := sh.lookup(key); ok {
		return v, true
	}
	sh.mu.Lock()
	v, ok := sh.dirty[string(key)]
	sh.mu.Unlock()
	return v, ok
}

// shard returns key's shard.
//
//lint:hotpath
func (x *Index) shard(key []byte) *internShard {
	return &x.shards[maphash.Bytes(x.seed, key)&x.mask]
}

// lookup looks key up in the shard's published snapshot, without a lock.
//
//lint:hotpath
func (sh *internShard) lookup(key []byte) (uint32, bool) {
	if snap := sh.clean.Load(); snap != nil {
		v, ok := (*snap)[string(key)]
		return v, ok
	}
	return 0, false
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
	if v, ok := sh.dirty[key]; ok {
		return v
	}
	return sh.addLocked(key, mk(key))
}

// addLocked files v under key and republishes the snapshot once the table
// has doubled since the last one. The caller holds the shard mutex.
func (sh *internShard) addLocked(key string, v uint32) uint32 {
	if sh.dirty == nil {
		sh.dirty = make(map[string]uint32, 8)
	}
	sh.dirty[key] = v
	if len(sh.dirty) >= 2*sh.published {
		sh.publishLocked()
	} else {
		sh.pend.Store(int32(len(sh.dirty) - sh.published))
	}
	return v
}

// publishLocked snapshots dirty into a fresh immutable map and publishes
// it. The caller holds the shard mutex.
func (sh *internShard) publishLocked() {
	snap := make(map[string]uint32, len(sh.dirty))
	for k, v := range sh.dirty { //lint:nondet copying into a map is order-insensitive
		snap[k] = v
	}
	sh.clean.Store(&snap)
	sh.published = len(sh.dirty)
	sh.pend.Store(0)
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
