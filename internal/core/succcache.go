package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// indexShardBits sizes the key index: 1<<indexShardBits shards. Its
// lookups take no lock, so shards only spread inserts, and a few keep its
// fixed cost small.
const indexShardBits = 3

// SuccessorCache is a model's shared intern table and its successor memo.
// It interns every state it sees (by its model's cache key) into a dense
// uint32 id, and it remembers the model's latest explored graph: the CSR
// arrays are the only record of which states succeed which. An exploration
// of the same model from the same roots takes that graph, or continues
// it, instead of enumerating its layers again (ExploreIDCtx). The model
// types embed one cache per model instance, which makes the sharing
// automatic for every consumer of the same model value.
//
// Enumeration is key-first (KeyedSuccessor): the model names each
// successor by its cache key, the cache probes it, and the model builds
// only the successors the cache has not seen. A plain Successor's cache key
// is its canonical Key; the synchronous models key a state by its round,
// failed set and local-state ids, the asynchronous ones by its environment
// and process record ids. KeyOf always returns the canonical Key.
// Enumerate and Successors run that enumeration every time they are
// called; nothing records its result.
//
// The key table is an Index, whose lookups take no lock; a new key locks
// the one index shard it hashes to. A plain cache's index keeps no key
// bytes: it confirms a match against the canonical key the entry already
// holds. StateOf and KeyOf read the entry slots and take no lock.
//
// A SuccessorCache is safe for concurrent use. Ids are dense (0..Len()-1)
// and assigned in first-intern order from one atomic allocator, so their
// numeric values depend on access order and must not be used as
// externally-visible identifiers; they are join keys for memo tables and
// dense arrays only.
type SuccessorCache struct {
	keyed KeyedSuccessor
	// raw is the uncached successor function: the plain Successor, or the
	// keyed enumeration against the zero Prober.
	raw Successor
	// plain marks a cache over a plain Successor, whose cache key is the
	// canonical Key itself.
	plain bool

	// next allocates dense ids across all shards.
	next atomic.Uint32

	// entries holds one slot per id.
	entries Slots[cacheEntry]

	// bytes totals the interned key lengths.
	bytes atomic.Int64
	// hits counts the expanded nodes explorations took from a remembered
	// graph; enums counts enumerations.
	hits  atomic.Int64
	enums atomic.Int64

	// bufs pools reusable key buffers so AppendKey-based lookups allocate
	// nothing in steady state.
	bufs sync.Pool

	index Index

	// last is the latest complete graph explored over this cache without
	// a node budget and past layer 0, without its analysis caches; nil
	// before one. It is never modified.
	last atomic.Pointer[IDGraph]
}

// cacheEntry is one interned state's slot, written once under the owning
// index shard's mutex before the id escapes.
type cacheEntry struct {
	state State
	key   string
}

// NewSuccessorCache returns an empty cache over the plain successor
// function fn, keyed by canonical Key.
func NewSuccessorCache(fn Successor) *SuccessorCache {
	return newCache(plainKeyed{fn}, fn, true)
}

// NewKeyedCache returns an empty cache over the key-first successor
// function k.
func NewKeyedCache(k KeyedSuccessor) *SuccessorCache {
	return newCache(k, uncachedKeyed{k}, false)
}

func newCache(k KeyedSuccessor, raw Successor, plain bool) *SuccessorCache {
	c := &SuccessorCache{keyed: k, raw: raw, plain: plain}
	var keyOf func(uint32) string
	if plain {
		// The cache key is the canonical key, which every entry holds.
		keyOf = c.KeyOf
	}
	c.index.init(indexShardBits, keyOf)
	c.bufs.New = func() any {
		b := make([]byte, 0, 128)
		return &b
	}
	return c
}

// CacheOf returns the successor cache shared by s when s carries one (the
// model types do, via embedding), or a fresh private cache wrapping s
// otherwise.
func CacheOf(s Successor) *SuccessorCache {
	if p, ok := s.(interface{ Cache() *SuccessorCache }); ok {
		if c := p.Cache(); c != nil {
			return c
		}
	}
	return NewSuccessorCache(s)
}

// Cache returns the cache itself; it exists so that embedding a
// *SuccessorCache advertises the cache through the CacheOf protocol.
func (c *SuccessorCache) Cache() *SuccessorCache { return c }

// Uncached returns the raw successor function beneath the cache, for
// callers that need to observe repeated enumeration (the determinism check
// in the package tests, coldbench's models.step_s replay).
// For a keyed model it is the same enumeration run against the zero
// Prober, which builds every successor.
func (c *SuccessorCache) Uncached() Successor { return c.raw }

// plainKeyed runs a plain Successor through the key-first loop: it keys
// each already-built successor with AppendKey.
type plainKeyed struct{ fn Successor }

func (a plainKeyed) AppendCacheKey(dst []byte, x State) []byte { return AppendKeyOf(x, dst) }

func (a plainKeyed) SuccessorsKeyed(x State, p Prober) ([]Succ, []uint32) {
	raw := a.fn.Successors(x)
	ids := make([]uint32, len(raw))
	if p.c == nil {
		return raw, ids
	}
	bp := p.c.keyBuf()
	buf := (*bp)[:0]
	for i := range raw {
		buf = AppendKeyOf(raw[i].State, buf[:0])
		ids[i] = p.c.internKey(buf, raw[i].State)
		raw[i].State = p.c.StateOf(ids[i])
	}
	p.c.release(bp, buf)
	return raw, ids
}

// uncachedKeyed is a keyed model's raw successor function: its enumeration
// against the zero Prober.
type uncachedKeyed struct{ k KeyedSuccessor }

func (u uncachedKeyed) Successors(x State) []Succ {
	succs, _ := u.k.SuccessorsKeyed(x, Prober{})
	return succs
}

// entry returns the slot of id. The id must have been obtained from this
// cache, which guarantees (transitively, through whichever synchronized
// path delivered the id) that its chunk is published and its state/key
// writes are visible.
func (c *SuccessorCache) entry(id uint32) *cacheEntry { return c.entries.At(id) }

// keyBuf borrows a pooled key buffer; release returns it grown.
func (c *SuccessorCache) keyBuf() *[]byte { return c.bufs.Get().(*[]byte) }

func (c *SuccessorCache) release(bp *[]byte, buf []byte) {
	*bp = buf[:0]
	c.bufs.Put(bp)
}

// ID interns x and returns its dense id without enumerating successors.
func (c *SuccessorCache) ID(x State) uint32 {
	bp := c.keyBuf()
	key := c.keyed.AppendCacheKey((*bp)[:0], x)
	id := c.internKey(key, x)
	c.release(bp, key)
	return id
}

// internKey returns the id under the cache key bytes, interning x on first
// sight. A key already filed costs no lock and no allocation; any other key
// is checked against x outside the lock, then filed under it if still
// absent.
func (c *SuccessorCache) internKey(key []byte, x State) uint32 {
	if id, ok := c.index.Get(key); ok {
		return id
	}
	return c.insert(key, x)
}

// insert files x under key unless an equal state is filed there already,
// and returns the id filed.
func (c *SuccessorCache) insert(key []byte, x State) uint32 {
	ks := c.checkKey(key, x)
	return c.index.Intern(key, func() uint32 {
		id := c.next.Add(1) - 1
		e := c.entries.Grow(id)
		e.state, e.key = x, ks
		c.bytes.Add(int64(len(ks)))
		return id
	})
}

// checkKey returns x's canonical key, and panics when x, about to be
// interned under key, would not be found under it again: when its
// AppendKey diverges from its Key, or when its model's cache key for it,
// rebuilt from the state, differs from key (for the message-passing
// models: when its ids do not name its strings). It allocates nothing
// beyond what Key does.
func (c *SuccessorCache) checkKey(key []byte, x State) string {
	ks := x.Key()
	if c.plain {
		if ks != string(key) {
			panic(fmt.Sprintf("core: %T.AppendKey diverged from Key: %q vs %q", x, key, ks))
		}
		return ks
	}
	bp := c.keyBuf()
	buf := AppendKeyOf(x, (*bp)[:0])
	if ks != string(buf) {
		panic(fmt.Sprintf("core: %T.AppendKey diverged from Key: %q vs %q", x, buf, ks))
	}
	buf = c.keyed.AppendCacheKey(buf[:0], x)
	if string(buf) != string(key) {
		panic(fmt.Sprintf("core: %T cache key diverged from its state %q: %x vs %x", x, ks, key, buf))
	}
	c.release(bp, buf)
	return ks
}

// Successors implements Successor: it enumerates S(x) through the cache,
// so every successor is the state interned under its id.
func (c *SuccessorCache) Successors(x State) []Succ {
	succs, _ := c.Enumerate(x)
	return succs
}

// Enumerate returns the labeled successors of x and the ids they are
// interned under, aligned. Each call enumerates S(x) key-first: a successor
// the cache already holds is never built (keyed models) or is garbage as
// soon as the call returns (plain ones), and the state returned for it is
// the one interned under its id.
func (c *SuccessorCache) Enumerate(x State) ([]Succ, []uint32) {
	c.enums.Add(1)
	return c.keyed.SuccessorsKeyed(x, Prober{c})
}

// StateOf returns the state interned under id, without locking.
func (c *SuccessorCache) StateOf(id uint32) State { return c.entry(id).state }

// KeyOf returns the canonical key interned under id, without locking.
func (c *SuccessorCache) KeyOf(id uint32) string { return c.entry(id).key }

// Len returns the number of distinct states interned so far.
func (c *SuccessorCache) Len() int { return int(c.next.Load()) }

// CacheStats is a point-in-time view of a successor cache's effectiveness.
type CacheStats struct {
	// States is the number of distinct states interned.
	States int
	// Hits counts the expanded nodes explorations took from a remembered
	// graph instead of enumerating them. A cold exploration reports none
	// at any worker count.
	Hits int64
	// Enumerations counts successor enumerations performed: one per node
	// an exploration expands, and one per Enumerate or Successors call.
	Enumerations int
	// InternedBytes is the total size of the interned key strings.
	InternedBytes int
}

// Stats returns the cache's current counters.
func (c *SuccessorCache) Stats() CacheStats {
	return CacheStats{
		States:        c.Len(),
		Hits:          c.hits.Load(),
		Enumerations:  int(c.enums.Load()),
		InternedBytes: int(c.bytes.Load()),
	}
}
