// Package cache is the client's write-back cache: data pages, cached
// block maps, and cached attributes, all protected jointly by data locks
// and the client's lease. The cache itself is mechanism; the policy —
// when entries may be served, when they must be flushed or invalidated —
// is driven by the owning client according to the lease phase and lock
// mode.
//
// Clean page content is content-addressed (see blockstore.go): pages
// with identical bytes share one pooled buffer across files and block
// indexes, refcounted per page, so the resident footprint of N readers
// of the same hot data is one copy, not N. Dirty content is always
// private to its object — a write copy-on-writes away from any shared
// block — so dedup never leaks un-flushed bytes between objects, and
// dropping one object (demand compliance, lease expiry) releases only
// its own references.
package cache

import (
	"container/list"
	"hash/maphash"
	"sort"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/stats"
)

// Page is one cached block of file data.
//
// Data is owned by the cache and recycled when the page is evicted,
// dropped, or invalidated, so anything that keeps page content past the
// current executor turn must copy it (the read paths in internal/client
// do). A clean page's Data aliases a refcounted content block that other
// pages may share — it must never be written through; all mutation goes
// through Cache.Write, which detaches the page onto a private buffer
// first.
type Page struct {
	Data  []byte
	Dirty bool
	// Ver is the oracle's version stamp for this content (consistency
	// checking only).
	Ver uint64
	// blk is the shared content block a clean page references (nil for
	// dirty pages, whose Data is a private pooled buffer).
	blk *block
	// prefetched marks a page installed by read-ahead and not yet
	// served; the first Lookup hit counts it and clears the flag, and
	// removal with the flag still set counts as wasted read-ahead.
	prefetched bool
}

// Object is the cached state for one file.
type Object struct {
	Attr msg.Attr
	// Mode is the data lock under which this object is cached.
	Mode msg.LockMode
	// Blocks is the cached block map (valid while a data lock is held —
	// the map can only change through this client's own AllocBlocks).
	Blocks []msg.BlockRef
	// Fetched counts the leading entries of Blocks that came with the map
	// as the server returned it; the rest were granted to this client
	// since. A fetched block may hold data whatever Attr.Size says (its
	// writer's size update can have been lost), so only granted ones are
	// ever given back unwritten.
	Fetched   int
	HaveAttr  bool
	HaveMap   bool
	pages     map[uint64]*Page // index in file → page
	dirtyKeys map[uint64]bool
}

func newObject() *Object {
	return &Object{pages: make(map[uint64]*Page), dirtyKeys: make(map[uint64]bool)}
}

// Page returns the cached page at file-block index idx, or nil.
func (o *Object) Page(idx uint64) *Page { return o.pages[idx] }

// DirtyCount returns the number of dirty pages.
func (o *Object) DirtyCount() int { return len(o.dirtyKeys) }

type pageKey struct {
	ino msg.ObjectID
	idx uint64
}

// Cache is one client's cache across all objects. When a page or byte
// budget is set, clean pages are evicted least-recently-used; dirty
// pages are pinned until flushed (losing them would lose acknowledged
// writes) and live off the LRU list entirely, so eviction never scans
// past them.
type Cache struct {
	objects map[msg.ObjectID]*Object
	// maxPages bounds resident pages; maxBytes bounds resident content
	// bytes (each 0 = unbounded; both may be set).
	maxPages int
	maxBytes int64
	lru      *list.List // clean pages only; front = most recent; values are pageKey
	elems    map[pageKey]*list.Element
	// blocks is the content store: hash under seed → the chain of blocks
	// with that hash (longer than one means a collision, disambiguated by
	// byte compare).
	blocks map[uint64]*block
	seed   maphash.Seed
	// resident counts pages (clean + dirty); residentBytes counts
	// content bytes, each shared block once plus each private dirty
	// buffer.
	resident      int
	residentBytes int64

	hits, misses   *stats.Counter
	dirtyPages     *stats.Gauge
	invals         *stats.Counter
	evictions      *stats.Counter
	dedupHits      *stats.Counter
	bytesGauge     *stats.Gauge
	prefetchHits   *stats.Counter
	prefetchWasted *stats.Counter
}

// New creates an empty, unbounded cache.
func New(reg *stats.Registry, prefix string) *Cache {
	return NewWithLimits(reg, prefix, 0, 0)
}

// NewWithCapacity creates a cache evicting clean pages LRU beyond
// maxPages (0 = unbounded).
func NewWithCapacity(reg *stats.Registry, prefix string, maxPages int) *Cache {
	return NewWithLimits(reg, prefix, maxPages, 0)
}

// NewWithLimits creates a cache bounded by maxPages resident pages and
// maxBytes resident content bytes (each 0 = unbounded). Bytes are
// counted after dedup — N pages sharing one block cost its size once —
// so the byte quota bounds actual memory, not logical cache size.
func NewWithLimits(reg *stats.Registry, prefix string, maxPages int, maxBytes int64) *Cache {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	return &Cache{
		objects:        make(map[msg.ObjectID]*Object),
		maxPages:       maxPages,
		maxBytes:       maxBytes,
		lru:            list.New(),
		elems:          make(map[pageKey]*list.Element),
		blocks:         make(map[uint64]*block),
		seed:           maphash.MakeSeed(),
		hits:           reg.Counter(prefix + "cache.hits"),
		misses:         reg.Counter(prefix + "cache.misses"),
		dirtyPages:     reg.Gauge(prefix + "cache.dirty_pages"),
		invals:         reg.Counter(prefix + "cache.invalidations"),
		evictions:      reg.Counter(prefix + "cache.evictions"),
		dedupHits:      reg.Counter(prefix + "cache.dedup_hits"),
		bytesGauge:     reg.Gauge(prefix + "cache.resident_bytes"),
		prefetchHits:   reg.Counter(prefix + "cache.prefetch_hits"),
		prefetchWasted: reg.Counter(prefix + "cache.prefetch_wasted"),
	}
}

// addBytes moves the resident-byte account (and its gauge) by d.
func (c *Cache) addBytes(d int64) {
	c.residentBytes += d
	c.bytesGauge.Add(d)
}

// touch marks a clean page most-recently-used.
func (c *Cache) touch(k pageKey) {
	if e, ok := c.elems[k]; ok {
		c.lru.MoveToFront(e)
		return
	}
	c.elems[k] = c.lru.PushFront(k)
}

// forget removes a page from the LRU bookkeeping.
func (c *Cache) forget(k pageKey) {
	if e, ok := c.elems[k]; ok {
		c.lru.Remove(e)
		delete(c.elems, k)
	}
}

// release frees a page's content and its cache-wide bookkeeping. The
// caller removes the page from its object's map and settles dirty
// accounting; release handles buffer ownership (deref a shared block,
// recycle a private buffer), the LRU entry, the resident count, and
// wasted-read-ahead attribution.
func (c *Cache) release(k pageKey, p *Page) {
	if p.blk != nil {
		c.deref(p.blk)
	} else {
		c.addBytes(-int64(len(p.Data)))
		bufpool.Put(p.Data)
	}
	c.forget(k)
	c.resident--
	if p.prefetched {
		c.prefetchWasted.Inc()
	}
}

func (c *Cache) overBudget() bool {
	return (c.maxPages > 0 && c.resident > c.maxPages) ||
		(c.maxBytes > 0 && c.residentBytes > c.maxBytes)
}

// evictIfNeeded drops least-recently-used clean pages down to budget.
// Dirty pages are not on the LRU list, so each eviction is O(1): the
// back of the list is always evictable, and a cache whose budget is
// consumed entirely by pinned dirty pages simply has an empty list.
func (c *Cache) evictIfNeeded() {
	for c.overBudget() {
		e := c.lru.Back()
		if e == nil {
			return // everything resident is dirty: over budget, but safe
		}
		k := e.Value.(pageKey)
		o := c.objects[k.ino]
		if o == nil {
			c.lru.Remove(e)
			delete(c.elems, k)
			continue
		}
		p := o.pages[k.idx]
		if p == nil {
			c.lru.Remove(e)
			delete(c.elems, k)
			continue
		}
		delete(o.pages, k.idx)
		c.release(k, p)
		c.evictions.Inc()
	}
}

// Object returns the cached object, or nil.
func (c *Cache) Object(ino msg.ObjectID) *Object { return c.objects[ino] }

// Ensure returns the object's cache entry, creating it if absent.
func (c *Cache) Ensure(ino msg.ObjectID) *Object {
	o := c.objects[ino]
	if o == nil {
		o = newObject()
		c.objects[ino] = o
	}
	return o
}

// Lookup serves a cached page, counting hit/miss.
func (c *Cache) Lookup(ino msg.ObjectID, idx uint64) *Page {
	if o := c.objects[ino]; o != nil {
		if p := o.pages[idx]; p != nil {
			c.hits.Inc()
			if p.prefetched {
				p.prefetched = false
				c.prefetchHits.Inc()
			}
			if !p.Dirty {
				c.touch(pageKey{ino, idx})
			}
			return p
		}
	}
	c.misses.Inc()
	return nil
}

// Fill installs a clean page read from the SAN. data is copied (or
// deduplicated against resident content) — it may alias a receive
// buffer the transport recycles.
//
// Fill over a DIRTY page refuses and returns the dirty page unchanged:
// the cached dirty bytes are strictly newer than anything the SAN can
// return (the write was acknowledged into the cache under an exclusive
// lock), so overwriting would lose the update — and the historical
// variant of this path that did overwrite also left dirtyKeys and the
// dirty_pages gauge claiming a dirty page that no longer existed,
// wedging phase-4 quiesce on a TotalDirty that never drained.
func (c *Cache) Fill(ino msg.ObjectID, idx uint64, data []byte, ver uint64) *Page {
	return c.fill(ino, idx, data, ver, false)
}

// FillPrefetched is Fill for read-ahead completions: the page is
// flagged so its first hit (or its eviction without one) attributes the
// prefetch. A page already resident — a demand read won the race — is
// left untouched.
func (c *Cache) FillPrefetched(ino msg.ObjectID, idx uint64, data []byte, ver uint64) *Page {
	if o := c.objects[ino]; o != nil {
		if p := o.pages[idx]; p != nil {
			return p
		}
	}
	return c.fill(ino, idx, data, ver, true)
}

func (c *Cache) fill(ino msg.ObjectID, idx uint64, data []byte, ver uint64, prefetched bool) *Page {
	o := c.Ensure(ino)
	if old := o.pages[idx]; old != nil {
		if old.Dirty {
			return old
		}
		// Replacing clean content: drop the old reference; the LRU entry
		// is reused under the same key.
		c.deref(old.blk)
		c.resident--
	}
	b := c.intern(data)
	p := &Page{Data: b.data, Ver: ver, blk: b, prefetched: prefetched}
	o.pages[idx] = p
	c.resident++
	c.touch(pageKey{ino, idx})
	c.evictIfNeeded()
	return p
}

// Write applies a write-back store to a page, marking it dirty with the
// new version stamp. Missing pages are created (whole-block write). A
// page referencing a shared content block is detached onto a private
// buffer first (copy-on-write): other pages sharing the block keep
// their bytes.
func (c *Cache) Write(ino msg.ObjectID, idx uint64, data []byte, ver uint64) *Page {
	o := c.Ensure(ino)
	k := pageKey{ino, idx}
	p := o.pages[idx]
	if p == nil {
		p = &Page{}
		o.pages[idx] = p
		c.resident++
	} else if p.blk != nil {
		c.deref(p.blk)
		p.blk = nil
		p.Data = nil
	}
	if p.prefetched {
		// Overwritten before ever being served: that read-ahead was wasted.
		p.prefetched = false
		c.prefetchWasted.Inc()
	}
	c.addBytes(int64(len(data) - len(p.Data)))
	if cap(p.Data) >= len(data) {
		p.Data = p.Data[:len(data)]
	} else {
		bufpool.Put(p.Data)
		p.Data = bufpool.Get(len(data)) //tank:adopt(page owns Data; released on invalidate or intern)
	}
	copy(p.Data, data)
	p.Ver = ver
	if !p.Dirty {
		p.Dirty = true
		o.dirtyKeys[idx] = true
		c.dirtyPages.Add(1)
		// Dirty pages are pinned: off the LRU list until flushed.
		c.forget(k)
	}
	c.evictIfNeeded()
	return p
}

// MarkClean records that a page's current content reached the SAN. The
// private buffer is promoted into the content store — future fills or
// flushes of identical bytes dedup against it — and the page rejoins
// the clean LRU as most-recently-used.
func (c *Cache) MarkClean(ino msg.ObjectID, idx uint64) {
	o := c.objects[ino]
	if o == nil {
		return
	}
	p := o.pages[idx]
	if p == nil || !p.Dirty {
		return
	}
	p.Dirty = false
	delete(o.dirtyKeys, idx)
	c.dirtyPages.Add(-1)
	c.addBytes(-int64(len(p.Data)))
	b := c.internOwned(p.Data)
	p.blk = b
	p.Data = b.data
	// Newly clean pages become evictable; trim if over budget.
	c.touch(pageKey{ino, idx})
	c.evictIfNeeded()
}

// DirtyPages lists the dirty page indexes of an object.
func (c *Cache) DirtyPages(ino msg.ObjectID) []uint64 {
	o := c.objects[ino]
	if o == nil {
		return nil
	}
	out := make([]uint64, 0, len(o.dirtyKeys))
	for idx := range o.dirtyKeys {
		out = append(out, idx)
	}
	// Deterministic order: flush I/O issue order is behaviour (the disks
	// queue), and simulations must replay identically from a seed.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirtyObjects lists objects that have at least one dirty page, in
// deterministic (ascending) order.
func (c *Cache) DirtyObjects() []msg.ObjectID {
	var out []msg.ObjectID
	for ino, o := range c.objects {
		if len(o.dirtyKeys) > 0 {
			out = append(out, ino)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalDirty returns the number of dirty pages across all objects.
func (c *Cache) TotalDirty() int {
	n := 0
	for _, o := range c.objects {
		n += len(o.dirtyKeys)
	}
	return n
}

// DropPagesFrom removes all cached pages with index ≥ from (truncation):
// the underlying blocks are being freed, so neither dirty nor clean
// content may be served again.
func (c *Cache) DropPagesFrom(ino msg.ObjectID, from uint64) {
	o := c.objects[ino]
	if o == nil {
		return
	}
	for idx, p := range o.pages {
		if idx < from {
			continue
		}
		if p.Dirty {
			delete(o.dirtyKeys, idx)
			c.dirtyPages.Add(-1)
		}
		delete(o.pages, idx)
		c.release(pageKey{ino, idx}, p)
	}
}

// Drop removes an object entirely (lock fully released or invalidated).
// Dirty pages are discarded — the caller is responsible for flushing
// first when the protocol requires it. Shared content blocks lose only
// this object's references: other objects caching the same bytes keep
// serving them, which is what makes dedup safe under per-object
// revocation.
func (c *Cache) Drop(ino msg.ObjectID) {
	o := c.objects[ino]
	if o == nil {
		return
	}
	c.dirtyPages.Add(-int64(len(o.dirtyKeys)))
	for idx, p := range o.pages {
		c.release(pageKey{ino, idx}, p)
	}
	delete(c.objects, ino)
	c.invals.Inc()
}

// InvalidateAll empties the cache (lease expiry). Returns the number of
// dirty pages discarded — nonzero means lost updates, which the paper's
// protocol avoids by flushing in phase 4 before this is called.
func (c *Cache) InvalidateAll() (discardedDirty int) {
	for _, o := range c.objects {
		discardedDirty += len(o.dirtyKeys)
		for _, p := range o.pages {
			if p.blk == nil {
				// Private dirty buffer; shared blocks are recycled once
				// each from the store below.
				bufpool.Put(p.Data)
			}
			if p.prefetched {
				c.prefetchWasted.Inc()
			}
		}
	}
	for _, b := range c.blocks {
		for ; b != nil; b = b.next {
			bufpool.Put(b.data)
		}
	}
	c.dirtyPages.Add(-int64(discardedDirty))
	c.invals.Add(uint64(len(c.objects)))
	c.objects = make(map[msg.ObjectID]*Object)
	c.blocks = make(map[uint64]*block)
	c.lru.Init()
	c.elems = make(map[pageKey]*list.Element)
	c.resident = 0
	c.addBytes(-c.residentBytes)
	return discardedDirty
}

// Len returns the number of cached objects.
func (c *Cache) Len() int { return len(c.objects) }

// ResidentPages returns the number of pages currently cached (clean and
// dirty).
func (c *Cache) ResidentPages() int { return c.resident }

// ResidentBytes returns the resident content footprint: each shared
// block counted once plus each private dirty buffer. This is the
// quantity the byte quota bounds.
func (c *Cache) ResidentBytes() int64 { return c.residentBytes }
