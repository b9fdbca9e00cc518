// Package cache is the client's write-back cache: data pages, cached
// block maps, and cached attributes, all protected jointly by data locks
// and the client's lease. The cache itself is mechanism; the policy —
// when entries may be served, when they must be flushed or invalidated —
// is driven by the owning client according to the lease phase and lock
// mode.
//
// Clean page content is content-addressed (see blockstore.go): pages
// with identical bytes share one pooled buffer across files, block
// indexes and authorities, refcounted per page, so the resident
// footprint of N readers of the same hot data is one copy, not N. Dirty
// content is always private to its page — a write copy-on-writes away
// from any shared block — so dedup never leaks un-flushed bytes between
// objects, and dropping one object (demand compliance, lease expiry)
// releases only its own references.
package cache

import (
	"slices"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/stats"
)

// Page is one cached block of file data.
//
// Its bytes are owned by the cache and recycled when the page is
// evicted, dropped, or invalidated, so anything that keeps page content
// past the current executor turn must copy it (the read paths in
// internal/client do). A clean page's bytes are a refcounted content
// block that other pages may share — they must never be written
// through; all mutation goes through Cache.Write, which moves the page
// onto a private block first.
//
// The header itself is recycled too: a removed page is parked on the
// store's free list and the next page filed takes it back. A *Page is
// handed out only by Lookup, LookupBehind and Object.Page, and is valid
// until the next call that can remove a page — Fill, FillPrefetched,
// Write, MarkClean, DropPagesFrom, Drop, InvalidateAll. Every holder
// outside this package reads the page and lets go of it before making
// one (TestNoPageOutlivesItsLookup checks the shipped code for it); a
// flush that outlives the turn keeps the page's index and version and
// finds the page again. Under -tags tankdebug a parked header is
// poisoned: its Ver and index read 0xDB… and Bytes panics.
type Page struct {
	// Ver is the oracle's version stamp for this content (consistency
	// checking only).
	Ver uint64
	// blk holds the content: a block in the store while the page is
	// clean, a private one (refs 1, never in the store) while it is dirty.
	blk *block
	// prev and next link a clean page into the cache's LRU ring; a dirty
	// page is off the ring and both are nil.
	prev, next *Page
	// obj and idx say where the page is filed, so eviction looks nothing
	// up.
	obj   *Object
	idx   uint64
	Dirty bool
	// prefetched marks a page installed by read-ahead and not yet
	// served; the first Lookup hit counts it and clears the flag, and
	// removal with the flag still set counts as wasted read-ahead.
	prefetched bool
}

// Bytes returns the page's content, which aliases cache memory (see
// Page).
func (p *Page) Bytes() []byte { return p.blk.data }

// Object is the cached state for one file.
type Object struct {
	Attr msg.Attr
	// Map is the cached block map, as runs (valid while a data lock is
	// held — the map can only change through this client's own
	// AllocBlocks).
	Map msg.Extents
	// Fetched counts the leading blocks of Map that came with the map as
	// the server returned it; the rest were granted to this client since.
	// A fetched block may hold data whatever Attr.Size says (its writer's
	// size update can have been lost), so only granted ones are ever
	// given back unwritten.
	Fetched  int
	HaveAttr bool
	HaveMap  bool
	// evicted records that eviction has taken one of the object's pages
	// since the object entered the cache.
	evicted   bool
	pages     map[uint64]*Page // index in file → page
	dirtyKeys map[uint64]bool
}

func newObject() *Object {
	return &Object{pages: make(map[uint64]*Page), dirtyKeys: make(map[uint64]bool)}
}

// Page returns the cached page at file-block index idx, or nil.
func (o *Object) Page(idx uint64) *Page { return o.pages[idx] }

// Evicted reports whether eviction has taken one of the object's pages
// since it entered the cache: the file does not fit beside what else the
// cache holds. The record goes with the object, at Drop or InvalidateAll.
func (o *Object) Evicted() bool { return o.evicted }

// DirtyCount returns the number of dirty pages.
func (o *Object) DirtyCount() int { return len(o.dirtyKeys) }

// Cache is one protocol instance's object table over its machine's page
// store, which every lease authority's instance shares (Sibling). The
// budget, ring, content and counters are the machine's; the objects, and
// what Object, TotalDirty, AppendDirtyObjects, Len, Drop and InvalidateAll see,
// are the instance's. When a page or byte budget is set, clean pages of
// any table are evicted from the cold end of the ring: least-recently-
// used, unless LookupBehind or Hit filed a consumed page there, which
// then goes first. Dirty pages are pinned until flushed (losing them
// would lose acknowledged writes) and live off the ring entirely.
type Cache struct {
	objects map[msg.ObjectID]*Object
	*store
}

// store is a machine's pages: what every object table over it shares.
type store struct {
	// maxPages bounds resident pages; maxBytes bounds resident content
	// bytes (each 0 = unbounded; both may be set).
	maxPages int
	maxBytes int64
	// lru is the sentinel of the ring of clean pages: lru.next is the
	// most recently used, lru.prev — the cold end — the next to evict.
	lru Page
	// blocks is the content store: CRC32C → the chain of blocks with
	// that checksum (longer than one means a collision, disambiguated by
	// byte compare).
	blocks map[uint32]*block
	// spare is the free list of block headers, linked through next, and
	// sparePages that of page headers, linked through Page.next.
	spare      *block
	sparePages *Page
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

// New creates an empty, unbounded cache with a store of its own.
func New(reg *stats.Registry, prefix string) *Cache {
	return NewWithLimits(reg, prefix, 0, 0)
}

// NewWithLimits creates a cache, and its store, bounded by maxPages
// resident pages and maxBytes resident content bytes (each 0 =
// unbounded). Bytes are counted after dedup — N pages sharing one block
// cost its size once — so the byte quota bounds actual memory.
func NewWithLimits(reg *stats.Registry, prefix string, maxPages int, maxBytes int64) *Cache {
	if reg == nil {
		reg = stats.NewRegistry()
	}
	s := &store{
		maxPages:       maxPages,
		maxBytes:       maxBytes,
		blocks:         make(map[uint32]*block),
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
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return &Cache{objects: make(map[msg.ObjectID]*Object), store: s}
}

// Sibling returns an empty object table over c's store, for another
// lease authority's instance on the same machine.
func (c *Cache) Sibling() *Cache {
	return &Cache{objects: make(map[msg.ObjectID]*Object), store: c.store}
}

// addBytes moves the resident-byte account (and its gauge) by d.
func (s *store) addBytes(d int64) {
	s.residentBytes += d
	s.bytesGauge.Add(d)
}

// link puts a clean page at the front of the ring, most recently used.
func (s *store) link(p *Page) {
	p.prev, p.next = &s.lru, s.lru.next
	p.next.prev = p
	s.lru.next = p
}

// linkCold puts a clean page at the cold end of the ring, next to evict.
func (s *store) linkCold(p *Page) {
	p.prev, p.next = s.lru.prev, &s.lru
	p.prev.next = p
	s.lru.prev = p
}

// unlink takes a page off the ring.
func (s *store) unlink(p *Page) {
	p.prev.next = p.next
	p.next.prev = p.prev
	p.prev, p.next = nil, nil
}

// release frees a page's block and its cache-wide bookkeeping. The
// caller removes the page from its object's map and settles dirty
// accounting; release handles the block (free a dirty page's private
// one, deref a clean page's and take the page off the ring), the
// resident count, and wasted-read-ahead attribution.
func (s *store) release(p *Page) {
	if p.Dirty {
		s.freeBlock(p.blk)
	} else {
		s.unlink(p)
		s.deref(p.blk)
	}
	s.resident--
	if p.prefetched {
		s.prefetchWasted.Inc()
	}
	*p = Page{next: s.sparePages}
	if bufpool.Debug {
		p.Ver, p.idx = poisonPage, poisonPage
	}
	s.sparePages = p
}

// poisonPage is what a parked header's Ver and index read under
// tankdebug: the bytes bufpool poisons a released buffer with.
const poisonPage = 0xDBDB_DBDB_DBDB_DBDB

// newPage files a fresh header for block idx of o, from the free list
// when it has one, and counts it resident.
func (s *store) newPage(o *Object, idx uint64, blk *block) *Page {
	p := s.sparePages
	if p == nil {
		p = new(Page)
	} else {
		s.sparePages = p.next
	}
	*p = Page{blk: blk, obj: o, idx: idx}
	o.pages[idx] = p
	s.resident++
	return p
}

func (s *store) overBudget() bool {
	return (s.maxPages > 0 && s.resident > s.maxPages) ||
		(s.maxBytes > 0 && s.residentBytes > s.maxBytes)
}

// evictIfNeeded drops clean pages from the cold end of the ring down to
// budget, and records on each page's object that it lost one. Dirty
// pages are not on the ring, so each eviction is O(1) pointer work: the
// ring's tail is always evictable, and a cache whose budget is consumed
// entirely by pinned dirty pages simply has an empty ring.
func (s *store) evictIfNeeded() {
	for s.overBudget() {
		p := s.lru.prev
		if p == &s.lru {
			return // everything resident is dirty: over budget, but safe
		}
		delete(p.obj.pages, p.idx)
		p.obj.evicted = true
		s.release(p)
		s.evictions.Inc()
	}
}

// Object returns the instance's cached object, or nil.
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

// Lookup serves a cached page, counting hit/miss; a clean page it serves
// becomes the most recently used.
func (c *Cache) Lookup(ino msg.ObjectID, idx uint64) *Page {
	return c.lookup(ino, idx, false)
}

// LookupBehind is Lookup for a page its reader has consumed and will not
// want again soon: a clean page it serves goes to the cold end of the
// ring, the next to evict (DESIGN §13.2).
func (c *Cache) LookupBehind(ino msg.ObjectID, idx uint64) *Page {
	return c.lookup(ino, idx, true)
}

func (c *Cache) lookup(ino msg.ObjectID, idx uint64, behind bool) *Page {
	if o := c.objects[ino]; o != nil {
		if p := o.pages[idx]; p != nil {
			c.Hit(p, behind)
			return p
		}
	}
	c.misses.Inc()
	return nil
}

// Hit does the bookkeeping of serving p, a resident page its caller
// found with Object.Page: what Lookup (behind false) or LookupBehind
// (behind true) does once it has found the page.
func (c *Cache) Hit(p *Page, behind bool) {
	c.hits.Inc()
	if p.prefetched {
		p.prefetched = false
		c.prefetchHits.Inc()
	}
	switch {
	case p.Dirty:
		// Off the ring until MarkClean.
	case behind:
		if c.lru.prev != p {
			c.unlink(p)
			c.linkCold(p)
		}
	case c.lru.next != p:
		c.unlink(p)
		c.link(p)
	}
}

// Fill installs a clean page read from the SAN. data is copied (or
// deduplicated against resident content) — it may alias a receive
// buffer the transport recycles.
//
// Fill over a DIRTY page refuses and leaves the dirty page unchanged:
// the cached dirty bytes are strictly newer than anything the SAN can
// return (the write was acknowledged into the cache under an exclusive
// lock), so overwriting would lose the update — and the historical
// variant of this path that did overwrite also left dirtyKeys and the
// dirty_pages gauge claiming a dirty page that no longer existed,
// wedging phase-4 quiesce on a TotalDirty that never drained.
func (c *Cache) Fill(ino msg.ObjectID, idx uint64, data []byte, ver uint64) {
	c.fill(ino, idx, data, ver, false)
}

// FillPrefetched is Fill for read-ahead completions: the page is
// flagged so its first hit (or its eviction without one) attributes the
// prefetch. A page already resident — a demand read won the race — is
// left untouched.
func (c *Cache) FillPrefetched(ino msg.ObjectID, idx uint64, data []byte, ver uint64) {
	if o := c.objects[ino]; o != nil && o.pages[idx] != nil {
		return
	}
	c.fill(ino, idx, data, ver, true)
}

func (c *Cache) fill(ino msg.ObjectID, idx uint64, data []byte, ver uint64, prefetched bool) {
	o := c.Ensure(ino)
	if old := o.pages[idx]; old != nil {
		if old.Dirty {
			return
		}
		// Replacing clean content: the old page goes the way every removal
		// does, off the ring and counted wasted if it was unserved
		// read-ahead; the new one enters at the front.
		c.release(old)
	}
	p := c.newPage(o, idx, c.intern(data))
	p.Ver, p.prefetched = ver, prefetched
	c.link(p)
	c.evictIfNeeded()
}

// Write applies a write-back store to a page, marking it dirty with the
// new version stamp. Missing pages are created (whole-block write). A
// clean page leaves the ring — dirty pages are pinned until flushed —
// and the store, onto a private block (copy-on-write): other pages
// sharing its block keep their bytes. A dirty page is written in place.
func (c *Cache) Write(ino msg.ObjectID, idx uint64, data []byte, ver uint64) {
	o := c.Ensure(ino)
	p := o.pages[idx]
	switch {
	case p == nil:
		p = c.newPage(o, idx, c.newBlock())
	case !p.Dirty:
		c.unlink(p)
		p.blk = c.own(p.blk)
	}
	if p.prefetched {
		// Overwritten before ever being served: that read-ahead was wasted.
		p.prefetched = false
		c.prefetchWasted.Inc()
	}
	c.setData(p.blk, data)
	p.Ver = ver
	if !p.Dirty {
		p.Dirty = true
		o.dirtyKeys[idx] = true
		c.dirtyPages.Add(1)
	}
	c.evictIfNeeded()
}

// MarkClean records that a page's current content reached the SAN. The
// private block is promoted into the content store — future fills or
// flushes of identical bytes dedup against it — and the page rejoins
// the ring as most-recently-used.
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
	c.promote(p)
	// Newly clean pages become evictable; trim if over budget.
	c.link(p)
	c.evictIfNeeded()
}

// AppendDirtyPages appends the dirty page indexes of an object to dst,
// in ascending order, and returns the extended slice.
func (c *Cache) AppendDirtyPages(dst []uint64, ino msg.ObjectID) []uint64 {
	o := c.objects[ino]
	if o == nil {
		return dst
	}
	n := len(dst)
	for idx := range o.dirtyKeys {
		dst = append(dst, idx)
	}
	// Deterministic order: flush I/O issue order is behaviour (the disks
	// queue), and simulations must replay identically from a seed.
	slices.Sort(dst[n:])
	return dst
}

// AppendDirtyObjects appends the instance's objects that have at least
// one dirty page to dst, in ascending order, and returns the extended
// slice.
func (c *Cache) AppendDirtyObjects(dst []msg.ObjectID) []msg.ObjectID {
	n := len(dst)
	for ino, o := range c.objects {
		if len(o.dirtyKeys) > 0 {
			dst = append(dst, ino)
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// TotalDirty returns the number of dirty pages in the instance's objects.
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
		c.release(p)
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
	for _, p := range o.pages {
		c.release(p)
	}
	delete(c.objects, ino)
	c.invals.Inc()
}

// InvalidateAll drops the instance's objects (lease expiry), leaving other
// tables' pages. Returns the number of dirty pages discarded — nonzero
// means lost updates, which the paper's protocol avoids by flushing in
// phase 4 before this is called.
func (c *Cache) InvalidateAll() (discardedDirty int) {
	discardedDirty = c.TotalDirty()
	for ino := range c.objects {
		c.Drop(ino)
	}
	return discardedDirty
}

// Len returns the number of the instance's cached objects.
func (c *Cache) Len() int { return len(c.objects) }

// ResidentPages returns the number of pages the machine's store holds
// (clean and dirty), across every table over it.
func (c *Cache) ResidentPages() int { return c.resident }

// ResidentBytes returns the machine's resident content footprint: each
// shared block counted once plus each private dirty buffer, across every
// table over the store. This is the quantity the byte quota bounds.
func (c *Cache) ResidentBytes() int64 { return c.residentBytes }
