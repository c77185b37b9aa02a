package core

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Index is an append-only, hash-sharded table from byte strings to uint32
// values whose lookups take no lock. A key's seeded 64-bit hash picks its
// shard (low bits) and its tag (high 32 bits). Each shard is a power-of-two
// open addressing table, linearly probed from the slot the tag's low bits
// name and doubled at ¾ load, and an arena of records: a filed key's value,
// its length and its bytes, one after another. A slot is one atomic word
// holding the tag and where the key's record starts. The arena is a byte
// slice, so the garbage collector scans no key. The successor cache files
// its states in one; the message-passing models file their local states,
// messages, Deliver and Receive results and asynchronous records in
// others, sized to what they hold.
//
// An insert locks its shard, appends its record and then publishes its
// slot with one atomic store. Growth, under the same mutex, builds the
// doubled table (or arena), copies the old one into it and publishes it
// with one pointer store; the old one is never written again. So a Get
// finds every key whose Intern returned before the Get began. A Get that
// races the insert of its own key may miss it; Intern, which looks again
// under the mutex, then returns the value filed.
//
// The zero Index is not usable; call NewIndex.
type Index struct {
	// seed keys the hash; placement is per-process random but never
	// observable.
	seed   maphash.Seed
	mask   uint64 // shard mask
	shards []indexShard
}

// indexShard is one slice of an Index. Readers load tab and recs without
// the mutex; inserts and growth hold it.
type indexShard struct {
	mu sync.Mutex
	// tab is the slot table, nil until the first insert. A slot is 0 when
	// empty, else the key's tag above its record's offset plus 1, so the
	// slot alone says where it belongs when the table grows.
	tab atomic.Pointer[[]atomic.Uint64]
	// recs is the record arena, nil until the first insert; the first used
	// bytes hold the records of the n keys filed.
	recs atomic.Pointer[[]byte]
	n    uint32
	used uint32
	// Pad shards onto separate cache lines.
	_ [32]byte
}

// A record is the value and the key length, little-endian, then the key
// bytes. A shard's first table has minSlots slots and its first arena
// minArena bytes.
const (
	recHeader = 8
	minSlots  = 8
	minArena  = 256
)

// NewIndex returns an empty index with 1<<shardBits shards. A shard costs
// nothing until its first insert.
func NewIndex(shardBits int) *Index {
	x := &Index{}
	x.init(shardBits)
	return x
}

// init sets up an empty index.
func (x *Index) init(shardBits int) {
	x.seed = maphash.MakeSeed()
	x.shards = make([]indexShard, 1<<shardBits)
	x.mask = uint64(len(x.shards) - 1)
}

// Get returns the value filed under key, without locking.
//
//lint:hotpath
func (x *Index) Get(key []byte) (uint32, bool) {
	h := maphash.Bytes(x.seed, key)
	return x.find(&x.shards[h&x.mask], h, key)
}

// find probes shard sh for key, whose hash is h. It loads the arena after
// the slot that names a record, so the arena holds that record.
//
//lint:hotpath
func (x *Index) find(sh *indexShard, h uint64, key []byte) (uint32, bool) {
	t := sh.tab.Load()
	if t == nil {
		return 0, false
	}
	slots, tag := *t, h>>32
	mask := uint64(len(slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := slots[i].Load()
		if w == 0 {
			return 0, false
		}
		if w>>32 != tag {
			continue
		}
		rec := (*sh.recs.Load())[uint32(w)-1:]
		if n := binary.LittleEndian.Uint32(rec[4:]); bytes.Equal(rec[recHeader:recHeader+n], key) {
			return binary.LittleEndian.Uint32(rec), true
		}
	}
}

// Intern returns the value filed under key, filing mk's result there
// first if the key is absent. mk runs under the key's shard mutex, at most
// once per key; it may take a Slots growth lock, and no lock of the index.
// Callers intern after Get missed.
func (x *Index) Intern(key []byte, mk func() uint32) uint32 {
	h := maphash.Bytes(x.seed, key)
	sh := &x.shards[h&x.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := x.find(sh, h, key); ok {
		return v
	}
	v := mk()
	off := sh.file(v, key)
	sh.n++
	var t []atomic.Uint64
	if p := sh.tab.Load(); p != nil {
		t = *p
	}
	if 4*uint64(sh.n) > 3*uint64(len(t)) {
		t = sh.grow(t)
	}
	place(t, h>>32<<32|uint64(off)+1)
	return v
}

// file appends the record of value v and key to sh's arena, doubling the
// arena when full, and returns the record's offset. It runs under the
// shard mutex.
func (sh *indexShard) file(v uint32, key []byte) uint32 {
	var a []byte
	if p := sh.recs.Load(); p != nil {
		a = *p
	}
	off := sh.used
	end := uint64(off) + recHeader + uint64(len(key))
	if end >= 1<<32 {
		panic("core: an index shard's records outgrew 4 GiB")
	}
	if end > uint64(len(a)) {
		next := make([]byte, max(2*len(a), minArena, int(end)))
		copy(next, a[:off])
		sh.recs.Store(&next)
		a = next
	}
	binary.LittleEndian.PutUint32(a[off:], v)
	binary.LittleEndian.PutUint32(a[off+4:], uint32(len(key)))
	copy(a[off+recHeader:], key)
	sh.used = uint32(end)
	return off
}

// grow replaces sh's table old (nil before the first insert) by one of
// twice the size holding every slot, and returns it. It runs under the
// shard mutex; readers still probing old find every key filed before.
func (sh *indexShard) grow(old []atomic.Uint64) []atomic.Uint64 {
	t := make([]atomic.Uint64, max(minSlots, 2*len(old)))
	for i := range old {
		if w := old[i].Load(); w != 0 {
			place(t, w)
		}
	}
	sh.tab.Store(&t)
	return t
}

// place stores slot word w in the first free slot of t from the one its
// tag names. It runs under the shard mutex.
func place(t []atomic.Uint64, w uint64) {
	mask := uint64(len(t) - 1)
	i := (w >> 32) & mask
	for t[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t[i].Store(w)
}

// Slots chunks grow geometrically from chunkMin slots, so n slots take
// O(log n) chunks.
const (
	chunkMinBits = 6
	chunkMin     = 1 << chunkMinBits
)

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

// Records files records under byte keys as dense ids: an Index from key
// to id over a Slots of the records. A lookup and a read take no lock; a
// new record locks one index shard. The asynchronous models file their
// channel histories, environments and process records in Records, the
// synchronous ones their environment keys.
//
// The zero Records is not usable; call Init.
type Records[T any] struct {
	index *Index
	next  atomic.Uint32
	slots Slots[T]
}

// Init sets up an empty Records whose index has 1<<shardBits shards.
func (r *Records[T]) Init(shardBits int) { r.index = NewIndex(shardBits) }

// Get returns the id filed under key.
func (r *Records[T]) Get(key []byte) (uint32, bool) { return r.index.Get(key) }

// At returns the record of id.
func (r *Records[T]) At(id uint32) T { return *r.slots.At(id) }

// Len returns the number of records filed.
func (r *Records[T]) Len() uint32 { return r.next.Load() }

// Add files mk's record under key and returns its id; mk receives the id
// and runs under an index shard mutex, at most once per key. An equal
// record filed first by another goroutine keeps its id.
func (r *Records[T]) Add(key []byte, mk func(id uint32) T) uint32 {
	return r.index.Intern(key, func() uint32 {
		id := r.next.Add(1) - 1
		*r.slots.Grow(id) = mk(id)
		return id
	})
}
