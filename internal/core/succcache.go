package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache geometry. The key index has 1<<indexShardBits shards: its
// lookups take no lock, so shards only spread inserts, and a few keep its
// fixed cost small. Entries are striped over numStripes (a power of two,
// so an id selects its stripe with one mask) for first enumeration and the
// hit counters. Entry chunks grow geometrically from chunkMin entries, so
// a cache that interns n states allocates O(log n) chunks and never moves
// an entry — which is what lets the read path hold raw *cacheEntry
// pointers without any lock.
const (
	indexShardBits = 3

	stripeBits = 6
	numStripes = 1 << stripeBits
	stripeMask = numStripes - 1

	chunkMinBits = 6
	chunkMin     = 1 << chunkMinBits
)

// SuccessorCache is a shared, id-keyed successor memo. It interns every
// state it sees (by its model's cache key) into a dense uint32 id and
// records each state's labeled successors the first time they are
// enumerated, so a sweep that explores, then certifies, then measures
// diameters enumerates each state's successors once instead of once per
// pass. The model types embed one cache per model instance, which makes the
// sharing automatic for every consumer of the same model value.
//
// Enumeration is key-first (KeyedSuccessor): the model names each
// successor by its cache key, the cache probes it, and the model builds
// only the successors the cache has not seen. A plain Successor's cache key
// is its canonical Key; the synchronous models key a state by its round,
// failed set and local-state ids, the asynchronous ones by its environment
// and process record ids. KeyOf always returns the canonical Key.
//
// The key table is an Index, whose lookups take no lock; a new key locks
// the one index shard it hashes to. A plain cache's index keeps no key
// bytes: it confirms a match against the canonical key the entry already
// holds. The memoized reads that follow — a SuccessorsOf call on an
// already-enumerated entry, StateOf, KeyOf — read the entry slots and take
// no lock; first enumeration locks the entry's stripe. Per-shard locks are
// never held while acquiring another shard's lock (the parshard analyzer
// enforces this).
//
// A SuccessorCache is safe for concurrent use. Ids are dense (0..Len()-1)
// and assigned in first-intern order from one atomic allocator, so their
// numeric values depend on access order and must not be used as
// externally-visible identifiers; they are join keys for memo tables and
// dense arrays only.
//
// The successor slices returned by the cache are shared: callers must not
// modify them. Their states are canonical: succs[i].State is the value
// StateOf(ids[i]) returns.
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
	// succTotal totals the lengths of recorded successor lists; explorations
	// re-running over a warm cache use it to size their edge arrays.
	succTotal atomic.Int64

	// bufs pools reusable key buffers so AppendKey-based lookups allocate
	// nothing in steady state.
	bufs sync.Pool

	index   Index
	stripes [numStripes]entryStripe
}

// entryStripe guards first-publication of entry successor lists (striped by
// id) and owns that stripe's hit/enumeration counters.
type entryStripe struct {
	mu    sync.Mutex
	hits  atomic.Int64
	enums atomic.Int64
	_     [32]byte
}

// cacheEntry is one interned state's slot. state and key are written once
// under the owning index shard's mutex before the id escapes; succs and ids
// are written once under the id's stripe mutex and published by the atomic
// done flag, so the memoized read path needs no lock.
type cacheEntry struct {
	state State
	key   string
	succs []Succ
	ids   []uint32
	done  atomic.Bool
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
// callers (CheckDeterminism) that need to observe repeated enumeration.
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

// stripeOf maps a dense id to its entry stripe. Ids are striped by
// chunkMin-sized block, not by low bits: BFS-ordered sweeps touch roughly
// sequential ids, so block striping keeps a sweep's counter updates on one
// hot cache line for chunkMin consecutive ids instead of bouncing across
// all numStripes padded lines, while parallel workers (which own disjoint
// contiguous frontier ranges) still land on distinct stripes.
func stripeOf(id uint32) uint32 { return (id >> chunkMinBits) & stripeMask }

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

// Successors implements Successor, memoized. The returned slice is shared;
// callers must not modify it.
func (c *SuccessorCache) Successors(x State) []Succ {
	_, succs, _ := c.SuccessorsID(x)
	return succs
}

// SuccessorsID interns x and returns its id, its labeled successors, and
// the successors' interned ids (aligned with succs).
func (c *SuccessorCache) SuccessorsID(x State) (id uint32, succs []Succ, ids []uint32) {
	id = c.ID(x)
	succs, ids = c.SuccessorsOf(id, x)
	return id, succs, ids
}

// SuccessorsOf returns the successors of the already-interned state x with
// id id, enumerating and recording them on first use. Passing the state
// alongside its id lets deep recursions avoid ever re-deriving a key. The
// memoized-hit path is lock-free: one atomic flag load, one counter add.
func (c *SuccessorCache) SuccessorsOf(id uint32, x State) (succs []Succ, ids []uint32) {
	e := c.entry(id)
	if e.done.Load() {
		c.stripes[stripeOf(id)].hits.Add(1)
		return e.succs, e.ids
	}
	// Enumerate outside any lock; a concurrent duplicate enumeration is
	// harmless (the successor function is deterministic) and the first
	// writer wins. Each recorded successor is the state interned under its
	// id, so a successor the cache already holds is never built (keyed
	// models) or is garbage as soon as this call returns (plain ones)
	// instead of living as long as the cache.
	raw, rawIDs := c.keyed.SuccessorsKeyed(x, Prober{c})
	st := &c.stripes[stripeOf(id)]
	st.mu.Lock()
	if e.done.Load() {
		succs, ids = e.succs, e.ids
		st.mu.Unlock()
		return succs, ids
	}
	e.succs, e.ids = raw, rawIDs
	e.done.Store(true)
	st.enums.Add(1)
	c.succTotal.Add(int64(len(raw)))
	st.mu.Unlock()
	return raw, rawIDs
}

// StateOf returns the state interned under id, without locking.
func (c *SuccessorCache) StateOf(id uint32) State { return c.entry(id).state }

// KeyOf returns the canonical key interned under id, without locking.
func (c *SuccessorCache) KeyOf(id uint32) string { return c.entry(id).key }

// Len returns the number of distinct states interned so far.
func (c *SuccessorCache) Len() int { return int(c.next.Load()) }

// EdgeHint returns the total length of the successor lists recorded so far
// — an upper capacity bound for the edge arrays of a re-exploration over
// this cache (an upper bound because the cache may hold states deeper than
// the re-exploration's depth).
func (c *SuccessorCache) EdgeHint() int { return int(c.succTotal.Load()) }

// Enumerations returns how many raw successor enumerations the cache has
// performed — the search effort actually paid, as opposed to the number of
// Successors calls served.
func (c *SuccessorCache) Enumerations() int {
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].enums.Load()
	}
	return int(total)
}

// ShardCounters is one shard's slice of the cache's counters. States counts
// the keys interned in the index shard; Hits and Enumerations count the
// memoized reads and raw enumerations of the entries striped to the same
// index (keys are sharded by hash, entries striped by id block — the two
// views share one index space of Shards stripes, and the index has fewer
// shards than that, so the later rows count no states).
type ShardCounters struct {
	States       int
	Hits         int64
	Enumerations int64
}

// CacheStats is a point-in-time view of a successor cache's effectiveness.
type CacheStats struct {
	// States is the number of distinct states interned.
	States int
	// Hits counts memoized successor lookups served without enumeration.
	Hits int64
	// Enumerations counts raw successor enumerations performed (the fill
	// side of the hit/miss ledger).
	Enumerations int
	// InternedBytes is the total size of the interned key strings.
	InternedBytes int
	// Shards is the shard/stripe count.
	Shards int
	// PerShard breaks States/Hits/Enumerations down by shard index.
	PerShard []ShardCounters
}

// HitRate returns hits / (hits + enumerations) in [0, 1], or 0 before any
// lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + int64(s.Enumerations)
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cache's current counters, including the per-shard
// breakdown.
func (c *SuccessorCache) Stats() CacheStats {
	st := CacheStats{
		States:        c.Len(),
		InternedBytes: int(c.bytes.Load()),
		Shards:        numStripes,
		PerShard:      make([]ShardCounters, numStripes),
	}
	for i := range c.index.shards {
		sh := &c.index.shards[i]
		sh.mu.Lock()
		st.PerShard[i].States = int(sh.n)
		sh.mu.Unlock()
	}
	for i := range c.stripes {
		h, e := c.stripes[i].hits.Load(), c.stripes[i].enums.Load()
		st.PerShard[i].Hits, st.PerShard[i].Enumerations = h, e
		st.Hits += h
		st.Enumerations += int(e)
	}
	return st
}
