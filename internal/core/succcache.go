package core

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Shard geometry. The shard count is a power of two so a key hash selects a
// shard with one mask; 64 shards keeps cross-worker intern collisions rare
// up to large core counts while costing only a few kilobytes per cache.
// Entry chunks grow geometrically from chunkMin entries, so a cache that
// interns n states allocates O(log n) chunks and never moves an entry —
// which is what lets the read path hold raw *cacheEntry pointers without
// any lock.
const (
	shardBits = 6
	numShards = 1 << shardBits
	shardMask = numShards - 1

	chunkMinBits = 6
	chunkMin     = 1 << chunkMinBits
)

// SuccessorCache is a shared, id-keyed successor memo. It interns every
// state it sees (by canonical Key) into a dense uint32 id and records each
// state's labeled successors the first time they are enumerated, so a sweep
// that explores, then certifies, then measures diameters enumerates each
// state's successors once instead of once per pass. The model types embed
// one cache per model instance, which makes the sharing automatic for every
// consumer of the same model value.
//
// The table is hash-sharded and lock-striped: keys are spread over numShards
// shards by a seeded hash, each guarded by its own mutex, and every shard
// additionally publishes a read-only snapshot of its key table through an
// atomic pointer. The memoized fast paths — an ID lookup that hits a
// published snapshot, a SuccessorsOf call on an already-enumerated entry,
// StateOf, KeyOf — therefore take zero locks; only first-sight interning and
// first enumeration touch a mutex, and then only the one shard (or stripe)
// involved. Per-shard locks are never held while acquiring another shard's
// lock (the parshard analyzer enforces this).
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
	fn Successor

	// seed keys the shard hash; shard placement is per-process random but
	// never observable (ids come from the global allocator, not the shard).
	seed maphash.Seed

	// next allocates dense ids across all shards.
	next atomic.Uint32

	// dir is the chunked entry directory: chunk c holds chunkMin<<c entries,
	// and the directory slice is republished atomically on growth, so
	// readers index entries with one atomic load and no lock. growMu
	// serializes growth only.
	dir    atomic.Pointer[[][]cacheEntry]
	growMu sync.Mutex

	// bytes totals the interned key lengths.
	bytes atomic.Int64
	// succTotal totals the lengths of recorded successor lists; explorations
	// re-running over a warm cache use it to size their edge arrays.
	succTotal atomic.Int64

	// bufs pools reusable key buffers so AppendKey-based lookups allocate
	// nothing in steady state.
	bufs sync.Pool

	shards  [numShards]internShard
	stripes [numShards]entryStripe
}

// internShard is one lock-striped slice of the key table.
type internShard struct {
	mu sync.Mutex
	// dirty is the authoritative key -> id table, guarded by mu.
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

// entryStripe guards first-publication of entry successor lists (striped by
// id) and owns that stripe's hit/enumeration counters.
type entryStripe struct {
	mu    sync.Mutex
	hits  atomic.Int64
	enums atomic.Int64
	_     [32]byte
}

// cacheEntry is one interned state's slot. state and key are written once
// under the owning key shard's mutex before the id escapes; succs and ids
// are written once under the id's stripe mutex and published by the atomic
// done flag, so the memoized read path needs no lock.
type cacheEntry struct {
	state State
	key   string
	succs []Succ
	ids   []uint32
	done  atomic.Bool
}

// NewSuccessorCache returns an empty cache over the raw successor function
// fn.
func NewSuccessorCache(fn Successor) *SuccessorCache {
	c := &SuccessorCache{fn: fn, seed: maphash.MakeSeed()}
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
func (c *SuccessorCache) Uncached() Successor { return c.fn }

// stripeOf maps a dense id to its entry stripe. Ids are striped by
// chunkMin-sized block, not by low bits: BFS-ordered sweeps touch roughly
// sequential ids, so block striping keeps a sweep's counter updates on one
// hot cache line for chunkMin consecutive ids instead of bouncing across
// all numShards padded lines, while parallel workers (which own disjoint
// contiguous frontier ranges) still land on distinct stripes.
func stripeOf(id uint32) uint32 { return (id >> chunkMinBits) & shardMask }

// entryLoc splits a dense id into its chunk coordinates: chunk c covers ids
// [chunkMin*(2^c - 1), chunkMin*(2^(c+1) - 1)).
func entryLoc(id uint32) (chunk, off uint32) {
	x := (id >> chunkMinBits) + 1
	chunk = uint32(bits.Len32(x)) - 1
	base := (uint32(1)<<chunk - 1) << chunkMinBits
	return chunk, id - base
}

// entry returns the slot of id. The id must have been obtained from this
// cache, which guarantees (transitively, through whichever synchronized
// path delivered the id) that its chunk is published and its state/key
// writes are visible.
func (c *SuccessorCache) entry(id uint32) *cacheEntry {
	chunk, off := entryLoc(id)
	dir := *c.dir.Load()
	return &dir[chunk][off]
}

// ensureEntry returns the slot of a freshly allocated id, growing the chunk
// directory if the id is the first of a new chunk. Lock order: callers hold
// one shard mutex; growMu nests inside it and inside nothing else.
func (c *SuccessorCache) ensureEntry(id uint32) *cacheEntry {
	chunk, off := entryLoc(id)
	if d := c.dir.Load(); d != nil && int(chunk) < len(*d) {
		return &(*d)[chunk][off]
	}
	c.growMu.Lock()
	var cur [][]cacheEntry
	if d := c.dir.Load(); d != nil {
		cur = *d
	}
	for int(chunk) >= len(cur) {
		next := make([][]cacheEntry, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = make([]cacheEntry, chunkMin<<uint(len(cur)))
		c.dir.Store(&next)
		cur = next
	}
	c.growMu.Unlock()
	return &cur[chunk][off]
}

// keyBuf borrows a pooled key buffer; release returns it grown.
func (c *SuccessorCache) keyBuf() *[]byte { return c.bufs.Get().(*[]byte) }

func (c *SuccessorCache) release(bp *[]byte, buf []byte) {
	*bp = buf[:0]
	c.bufs.Put(bp)
}

// ID interns x and returns its dense id without enumerating successors.
func (c *SuccessorCache) ID(x State) uint32 {
	bp := c.keyBuf()
	key := AppendKeyOf(x, (*bp)[:0])
	id := c.internKey(key, x)
	c.release(bp, key)
	return id
}

// internKey returns the id under the canonical key bytes, interning x on
// first sight. The hot path — a key already visible in its shard's
// published snapshot — takes zero locks and zero allocations (the
// string(key) conversions below are lookup-only and do not materialize).
func (c *SuccessorCache) internKey(key []byte, x State) uint32 {
	sh := &c.shards[maphash.Bytes(c.seed, key)&shardMask]
	if snap := sh.clean.Load(); snap != nil {
		if id, ok := (*snap)[string(key)]; ok {
			return id
		}
	}
	return c.internSlow(sh, key, x)
}

// internSlow is the locked tail of internKey: consult the authoritative
// table, then intern on a true miss.
func (c *SuccessorCache) internSlow(sh *internShard, key []byte, x State) uint32 {
	sh.mu.Lock()
	if id, ok := sh.dirty[string(key)]; ok {
		sh.mu.Unlock()
		return id
	}
	ks := x.Key()
	if ks != string(key) {
		sh.mu.Unlock()
		panic(fmt.Sprintf("core: %T.AppendKey diverged from Key: %q vs %q", x, key, ks))
	}
	id := c.next.Add(1) - 1
	e := c.ensureEntry(id)
	e.state, e.key = x, ks
	if sh.dirty == nil {
		sh.dirty = make(map[string]uint32, 8)
	}
	sh.dirty[ks] = id
	c.bytes.Add(int64(len(ks)))
	if len(sh.dirty) >= 2*sh.published {
		sh.publishLocked()
	} else {
		sh.pend.Store(int32(len(sh.dirty) - sh.published))
	}
	sh.mu.Unlock()
	return id
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

// Publish brings every shard's lock-free snapshot up to date with its
// authoritative table. The exploration engine calls it at pass boundaries
// so later passes (oracle queries, certification joins, re-explorations)
// resolve every interned key without touching a shard mutex. Shards with
// nothing pending are skipped without locking, so re-running a pass over a
// fully published cache costs one atomic load per shard.
//
// With instrumentation on, a publish that actually snapshots at least one
// shard is wrapped in a cache.publish span and each snapshotted shard's
// rebuild latency lands in the cache.publish.shard.time histogram — the
// per-shard view that shows a hot shard (skewed key hash) stalling the
// pass boundary.
func (c *SuccessorCache) Publish() {
	rec := obs.Active()
	tr := obs.Trace()
	var sp obs.TraceSpan
	published := 0
	var t0 time.Time
	for i := range c.shards {
		sh := &c.shards[i]
		if sh.pend.Load() == 0 {
			continue
		}
		if rec != nil {
			t0 = time.Now() //lint:nondet feeds shard-publish latency instrumentation only
		}
		sh.mu.Lock()
		snapped := false
		if len(sh.dirty) > sh.published {
			if tr != nil && sp.ID == 0 {
				sp = tr.Begin("cache.publish", 0)
			}
			sh.publishLocked()
			snapped = true
		}
		sh.mu.Unlock()
		if snapped {
			published++
			if rec != nil {
				rec.Observe("cache.publish.shard.time", time.Since(t0))
			}
		}
	}
	if tr != nil {
		tr.End(sp)
	}
	if rec != nil && published > 0 {
		rec.Add("cache.publishes", 1)
		rec.Record("cache.publish.shards", int64(published))
	}
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
	// id, so an enumerated duplicate (most successors are) is garbage as
	// soon as this call returns instead of living as long as the cache.
	raw := c.fn.Successors(x)
	rawIDs := make([]uint32, len(raw))
	bp := c.keyBuf()
	buf := (*bp)[:0]
	for i := range raw {
		buf = AppendKeyOf(raw[i].State, buf[:0])
		rawIDs[i] = c.internKey(buf, raw[i].State)
		raw[i].State = c.StateOf(rawIDs[i])
	}
	c.release(bp, buf)
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
// the keys interned in the key shard; Hits and Enumerations count the
// memoized reads and raw enumerations of the entries striped to the same
// index (keys are sharded by hash, entries striped by id block — the two
// views share one index space of Shards stripes).
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
		Shards:        numShards,
		PerShard:      make([]ShardCounters, numShards),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.PerShard[i].States = len(sh.dirty)
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
