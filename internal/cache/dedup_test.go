package cache

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/msg"
	"repro/internal/stats"
)

// Regression: Fill over a dirty page must refuse — the dirty bytes are
// an acknowledged write the SAN has not seen yet. The pre-fix Fill
// replaced the page with clean SAN content while leaving dirtyKeys and
// the dirty_pages gauge claiming a dirty page that no longer existed;
// MarkClean then no-oped (the new page was !Dirty), so TotalDirty never
// drained and phase-4 quiesce could spin forever. This test fails on
// that code: the returned page is clean and holds the stale bytes.
func TestFillOverDirtyRefused(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "r.")
	c.Write(1, 0, []byte("fresh"), 5)
	c.Fill(1, 0, []byte("stale"), 4)
	if p := c.Object(1).Page(0); !p.Dirty || !bytes.Equal(p.Bytes(), []byte("fresh")) {
		t.Fatalf("Fill overwrote dirty content: page = %+v", p)
	}
	if got := c.Object(1).Page(0); !got.Dirty || !bytes.Equal(got.Bytes(), []byte("fresh")) {
		t.Fatalf("resident page lost the acknowledged write: %+v", got)
	}
	if c.TotalDirty() != 1 || reg.Gauge("r.cache.dirty_pages").Value() != 1 {
		t.Fatalf("dirty accounting diverged: TotalDirty=%d gauge=%d",
			c.TotalDirty(), reg.Gauge("r.cache.dirty_pages").Value())
	}
	// The flush path must still drain the page — this is what wedges when
	// the bookkeeping desyncs.
	c.MarkClean(1, 0)
	if c.TotalDirty() != 0 || reg.Gauge("r.cache.dirty_pages").Value() != 0 {
		t.Fatalf("dirty page never drained: TotalDirty=%d gauge=%d — phase-4 quiesce would spin",
			c.TotalDirty(), reg.Gauge("r.cache.dirty_pages").Value())
	}
	if c.Object(1).Page(0).Dirty {
		t.Fatal("page still flagged dirty after MarkClean")
	}
}

// Identical clean content across objects shares one block; a write
// copy-on-writes away from it without disturbing the other holder, and
// dropping one object releases only its own references.
func TestDedupSharesAndIsolates(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "d.")
	content := bytes.Repeat([]byte("x"), 512)
	c.Fill(1, 0, content, 1)
	c.Fill(2, 5, content, 2)
	if got := reg.CounterValue("d.cache.dedup_hits"); got != 1 {
		t.Fatalf("dedup_hits = %d, want 1", got)
	}
	if c.SharedBlocks() != 1 || c.ResidentBytes() != 512 || c.ResidentPages() != 2 {
		t.Fatalf("blocks=%d bytes=%d pages=%d, want 1/512/2",
			c.SharedBlocks(), c.ResidentBytes(), c.ResidentPages())
	}
	// Copy-on-write: mutating (2,5) must not change (1,0)'s bytes.
	other := bytes.Repeat([]byte("y"), 512)
	c.Write(2, 5, other, 3)
	if !bytes.Equal(c.Object(1).Page(0).Bytes(), content) {
		t.Fatal("write through a shared block corrupted the other holder")
	}
	if c.ResidentBytes() != 1024 {
		t.Fatalf("bytes = %d after COW, want 1024", c.ResidentBytes())
	}
	// Per-object invalidation: dropping object 1 must not touch object
	// 2's page (the lease protocol revokes per object).
	c.Drop(1)
	if got := c.Object(2).Page(5); got == nil || !bytes.Equal(got.Bytes(), other) {
		t.Fatal("dropping one object disturbed another holder")
	}
	if c.ResidentBytes() != 512 || c.ResidentPages() != 1 {
		t.Fatalf("bytes=%d pages=%d after drop, want 512/1", c.ResidentBytes(), c.ResidentPages())
	}
}

// MarkClean promotes a flushed page's private buffer into the content
// store, deduplicating against already-resident identical content.
func TestMarkCleanDedupsAgainstResident(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "m.")
	content := bytes.Repeat([]byte("z"), 512)
	c.Fill(1, 0, content, 1)
	c.Write(2, 0, content, 2)
	if c.ResidentBytes() != 1024 {
		t.Fatalf("bytes = %d while dirty, want 1024 (dirty content is private)", c.ResidentBytes())
	}
	c.MarkClean(2, 0)
	if c.SharedBlocks() != 1 || c.ResidentBytes() != 512 {
		t.Fatalf("blocks=%d bytes=%d after promote, want 1/512", c.SharedBlocks(), c.ResidentBytes())
	}
	if reg.CounterValue("m.cache.dedup_hits") != 1 {
		t.Fatal("promotion did not dedup")
	}
	if !bytes.Equal(c.Object(2).Page(0).Bytes(), content) {
		t.Fatal("promoted page lost its content")
	}
}

// Byte-quota eviction: resident bytes are bounded, dedup'd pages are
// nearly free, and dirty pages are pinned past the quota.
func TestByteQuotaEviction(t *testing.T) {
	reg := stats.NewRegistry()
	c := NewWithLimits(reg, "q.", 0, 1024)
	a := bytes.Repeat([]byte("a"), 512)
	b := bytes.Repeat([]byte("b"), 512)
	d := bytes.Repeat([]byte("d"), 512)
	c.Fill(1, 0, a, 1)
	c.Fill(1, 1, b, 2)
	if c.ResidentBytes() != 1024 {
		t.Fatalf("bytes = %d, want 1024", c.ResidentBytes())
	}
	c.Fill(1, 2, d, 3) // 1536 > 1024: evict LRU page (idx 0)
	if c.ResidentBytes() > 1024 {
		t.Fatalf("bytes = %d over quota", c.ResidentBytes())
	}
	if c.Object(1).Page(0) != nil || reg.CounterValue("q.cache.evictions") == 0 {
		t.Fatal("LRU page not evicted for the byte quota")
	}
	// Dedup'd fills add pages but no bytes: no eviction needed.
	for i := uint64(10); i < 20; i++ {
		c.Fill(2, i, b, 4)
	}
	if c.ResidentBytes() > 1024 || c.Object(1).Page(1) == nil {
		t.Fatalf("dedup'd fills cost bytes: %d", c.ResidentBytes())
	}
	if c.ResidentPages() != 12 {
		t.Fatalf("pages = %d, want 12 (dedup does not evict page entries)", c.ResidentPages())
	}
}

// A dirty set larger than the whole budget is retained: acknowledged
// writes are never dropped, whichever budget (pages or bytes) is
// exceeded.
func TestQuotaSmallerThanDirtySet(t *testing.T) {
	c := NewWithLimits(nil, "", 2, 600)
	for i := uint64(0); i < 5; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 512)
		c.Write(1, i, data, i+1)
	}
	if c.TotalDirty() != 5 || c.ResidentPages() != 5 {
		t.Fatalf("dirty=%d resident=%d — an acknowledged write was dropped",
			c.TotalDirty(), c.ResidentPages())
	}
	// Flushing lets eviction trim back within both budgets.
	for i := uint64(0); i < 5; i++ {
		c.MarkClean(1, i)
	}
	if c.ResidentPages() > 2 || c.ResidentBytes() > 600 {
		t.Fatalf("resident=%d bytes=%d after flush, want within 2/600",
			c.ResidentPages(), c.ResidentBytes())
	}
}

// Accounting across the full page lifecycle.
func TestAccountingFillWriteCleanDrop(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "l.")
	gauge := func(name string) int64 { return reg.Gauge("l.cache." + name).Value() }
	content := bytes.Repeat([]byte("c"), 512)
	c.Fill(1, 0, content, 1)
	if c.ResidentPages() != 1 || c.ResidentBytes() != 512 || gauge("resident_bytes") != 512 {
		t.Fatalf("after Fill: pages=%d bytes=%d gauge=%d", c.ResidentPages(), c.ResidentBytes(), gauge("resident_bytes"))
	}
	c.Write(1, 0, bytes.Repeat([]byte("w"), 512), 2)
	if c.ResidentPages() != 1 || c.ResidentBytes() != 512 || gauge("dirty_pages") != 1 {
		t.Fatalf("after Write: pages=%d bytes=%d dirty=%d", c.ResidentPages(), c.ResidentBytes(), gauge("dirty_pages"))
	}
	c.MarkClean(1, 0)
	if gauge("dirty_pages") != 0 || c.ResidentBytes() != 512 || c.SharedBlocks() != 1 {
		t.Fatalf("after MarkClean: dirty=%d bytes=%d blocks=%d", gauge("dirty_pages"), c.ResidentBytes(), c.SharedBlocks())
	}
	c.Drop(1)
	if c.ResidentPages() != 0 || c.ResidentBytes() != 0 || gauge("resident_bytes") != 0 || c.SharedBlocks() != 0 {
		t.Fatalf("after Drop: pages=%d bytes=%d gauge=%d blocks=%d",
			c.ResidentPages(), c.ResidentBytes(), gauge("resident_bytes"), c.SharedBlocks())
	}
}

// Read-ahead attribution: the first hit on a prefetched page counts as
// a prefetch hit; removal (or overwrite) before any hit counts it
// wasted; a page a demand read already installed is left alone.
func TestPrefetchCounters(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "p.")
	hits := func() uint64 { return reg.CounterValue("p.cache.prefetch_hits") }
	wasted := func() uint64 { return reg.CounterValue("p.cache.prefetch_wasted") }

	c.FillPrefetched(1, 0, []byte("a"), 1)
	c.Lookup(1, 0)
	c.Lookup(1, 0) // only the first hit attributes
	if hits() != 1 || wasted() != 0 {
		t.Fatalf("hits=%d wasted=%d, want 1/0", hits(), wasted())
	}
	c.FillPrefetched(1, 1, []byte("b"), 2)
	c.Drop(1) // never served
	if wasted() != 1 {
		t.Fatalf("wasted = %d, want 1", wasted())
	}
	c.FillPrefetched(2, 0, []byte("d"), 3)
	c.Write(2, 0, []byte("e"), 4) // overwritten before serving
	if wasted() != 2 {
		t.Fatalf("wasted = %d, want 2", wasted())
	}
	c.Fill(3, 0, []byte("f"), 5)
	if c.FillPrefetched(3, 0, []byte("g"), 6); !bytes.Equal(c.Object(3).Page(0).Bytes(), []byte("f")) {
		t.Fatal("prefetch completion displaced a demand-read page")
	}
	c.Lookup(3, 0)
	if hits() != 1 {
		t.Fatalf("hits = %d — demand-read page wrongly attributed to prefetch", hits())
	}
	// A demand fill over an unserved read-ahead page replaces it: that
	// read-ahead was wasted, and the page it leaves is no prefetch hit.
	c.FillPrefetched(4, 0, []byte("h"), 7)
	c.Fill(4, 0, []byte("i"), 8)
	c.Lookup(4, 0)
	if hits() != 1 || wasted() != 3 {
		t.Fatalf("hits=%d wasted=%d after a demand fill over read-ahead, want 1/3", hits(), wasted())
	}
}

var cacheSeeds = flag.Int("cacheseeds", 24, "histories TestCacheModelProperty draws")

// mkey is where the model files one page: an object table over the
// store, an object in it, a block index. With idx 0 it also names an
// object.
type mkey struct {
	tab int
	ino msg.ObjectID
	idx uint64
}

// mpage is the model's view of one page.
type mpage struct {
	content string
	dirty   bool
}

// cacheModel is the store as a plain page map plus a recency list of
// its clean pages, most recent first, under the same two budgets, and
// the objects eviction has taken a page from.
type cacheModel struct {
	pages    map[mkey]mpage
	lru      []mkey
	evicted  map[mkey]bool
	maxPages int
	quota    int64
}

func (m *cacheModel) forget(k mkey) {
	for i, k2 := range m.lru {
		if k2 == k {
			m.lru = append(m.lru[:i], m.lru[i+1:]...)
			return
		}
	}
}

func (m *cacheModel) touch(k mkey) {
	m.forget(k)
	m.lru = append([]mkey{k}, m.lru...)
}

// cool files k at the cold end, the next to evict.
func (m *cacheModel) cool(k mkey) {
	m.forget(k)
	m.lru = append(m.lru, k)
}

func (m *cacheModel) remove(k mkey) {
	delete(m.pages, k)
	m.forget(k)
}

// bytes is the footprint the byte quota bounds: each unique clean
// content once, each dirty page on its own.
func (m *cacheModel) bytes() int64 {
	var n int64
	clean := make(map[string]bool)
	for _, p := range m.pages {
		if p.dirty {
			n += int64(len(p.content))
		} else if !clean[p.content] {
			clean[p.content] = true
			n += int64(len(p.content))
		}
	}
	return n
}

// evict drops least-recently-used clean pages down to budget and returns
// them in eviction order.
func (m *cacheModel) evict() []mkey {
	var victims []mkey
	for len(m.lru) > 0 && ((m.maxPages > 0 && len(m.pages) > m.maxPages) ||
		(m.quota > 0 && m.bytes() > m.quota)) {
		k := m.lru[len(m.lru)-1]
		m.remove(k)
		m.evicted[mkey{tab: k.tab, ino: k.ino}] = true
		victims = append(victims, k)
	}
	return victims
}

// Model-based property test: the cache against a plain page map and a
// recency list under arbitrary interleavings of every mutating
// operation, on one object table or on two over one store (Sibling: two
// authorities' instances on one machine, whose inode numbers overlap). This is the dedup analogue of the flush-equivalence test —
// MarkClean stands in for a flush commit — and pins exactly the
// bookkeeping the lease protocol's phase 4 relies on:
//
//	dirtyKeys ↔ Page.Dirty ↔ dirty_pages gauge never diverge,
//	dirty (acknowledged) content is never dropped or altered,
//	every resident page's bytes match the model (dedup never leaks
//	content between objects),
//	resident bytes equal the recomputed unique-content footprint,
//	every eviction takes the model LRU's victim, and the ring holds
//	exactly the clean pages in the model's recency order — a page a
//	sequential reader consumed (LookupBehind, Hit behind) at its cold
//	end,
//	an object records an eviction from its first until Drop or
//	InvalidateAll, whichever table's fill caused it,
//	Drop, DropPagesFrom and InvalidateAll on one table leave the other
//	table's pages and dirty set as they were,
//	every page holds one block, in the store iff the page is clean.
//
// -cacheseeds widens the sweep (make verify runs 20 000).
func TestCacheModelProperty(t *testing.T) {
	const (
		inos  = 3
		idxs  = 4
		steps = 400
	)
	contents := make([]string, 4)
	for i := range contents {
		contents[i] = strings.Repeat(string(rune('a'+i)), 512)
	}

	for seed := int64(0); seed < int64(*cacheSeeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &cacheModel{pages: make(map[mkey]mpage), evicted: make(map[mkey]bool)}
		if seed%2 == 1 {
			m.maxPages, m.quota = 5, 4*512
		}
		reg := stats.NewRegistry()
		tabs := []*Cache{NewWithLimits(reg, "mp.", m.maxPages, m.quota)}
		if seed%4 >= 2 {
			tabs = append(tabs, tabs[0].Sibling())
		}

		var ver uint64
		for step := 0; step < steps; step++ {
			tab := 0
			if len(tabs) > 1 {
				tab = rng.Intn(len(tabs))
			}
			c := tabs[tab]
			ino := msg.ObjectID(rng.Intn(inos) + 1)
			idx := uint64(rng.Intn(idxs))
			k := mkey{tab, ino, idx}
			data := contents[rng.Intn(len(contents))]
			ver++
			evictions := reg.CounterValue("mp.cache.evictions")
			p, resident := m.pages[k]
			switch rng.Intn(13) {
			case 0, 1, 2:
				c.Fill(ino, idx, []byte(data), ver)
				if !p.dirty {
					m.pages[k] = mpage{content: data}
					m.touch(k)
				}
			case 3, 4:
				c.FillPrefetched(ino, idx, []byte(data), ver)
				if !resident {
					m.pages[k] = mpage{content: data}
					m.touch(k)
				}
			case 5, 6, 7:
				c.Write(ino, idx, []byte(data), ver)
				m.pages[k] = mpage{content: data, dirty: true}
				m.forget(k)
			case 8:
				c.MarkClean(ino, idx)
				if p.dirty {
					m.pages[k] = mpage{content: p.content}
					m.touch(k)
				}
			case 9:
				c.Drop(ino)
				for k2 := range m.pages {
					if k2.tab == tab && k2.ino == ino {
						m.remove(k2)
					}
				}
				delete(m.evicted, mkey{tab: tab, ino: ino})
			case 10:
				c.DropPagesFrom(ino, idx)
				for k2 := range m.pages {
					if k2.tab == tab && k2.ino == ino && k2.idx >= idx {
						m.remove(k2)
					}
				}
			case 11:
				if rng.Intn(8) == 0 {
					c.InvalidateAll()
					for k2 := range m.pages {
						if k2.tab == tab {
							m.remove(k2)
						}
					}
					for k2 := range m.evicted {
						if k2.tab == tab {
							delete(m.evicted, k2)
						}
					}
				} else {
					c.Lookup(ino, idx)
					if resident && !p.dirty {
						m.touch(k)
					}
				}
			case 12:
				// A sequential reader's consumed page, found the way either
				// of the client's read paths finds it.
				if o := c.Object(ino); o != nil && o.Page(idx) != nil && rng.Intn(2) == 0 {
					c.Hit(o.Page(idx), true)
				} else {
					c.LookupBehind(ino, idx)
				}
				if resident && !p.dirty {
					m.cool(k)
				}
			}
			victims := m.evict()
			if got := reg.CounterValue("mp.cache.evictions") - evictions; got != uint64(len(victims)) {
				t.Fatalf("seed %d step %d: %d evictions, the model LRU made %d (%v)", seed, step, got, len(victims), victims)
			}
			for _, v := range victims {
				if o := tabs[v.tab].Object(v.ino); o != nil && o.Page(v.idx) != nil {
					t.Fatalf("seed %d step %d: the model LRU evicted %v, the cache kept it", seed, step, v)
				}
			}
			checkModel(t, tabs, reg, m, seed, step)
			if t.Failed() {
				return
			}
		}
	}
}

func checkModel(t *testing.T, tabs []*Cache, reg *stats.Registry, m *cacheModel, seed int64, step int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}

	// The store's figures read the same through any table.
	c := tabs[0]
	store := make(map[*block]int) // block → clean pages holding it
	for _, b := range c.blocks {
		for ; b != nil; b = b.next {
			store[b] = 0
		}
	}
	wantDirty := 0
	residentPages := 0
	cleanContents := make(map[string]bool)
	var wantBytes int64
	for tab, tc := range tabs {
		if tc.store != c.store {
			fail("table %d has a store of its own", tab)
		}
		tabDirty := 0
		for ino := msg.ObjectID(1); ino <= 3; ino++ {
			o := tc.Object(ino)
			dirtyHere := 0
			for idx := uint64(0); idx < 4; idx++ {
				var p *Page
				if o != nil {
					p = o.Page(idx)
				}
				k := mkey{tab, ino, idx}
				mp, inModel := m.pages[k]
				if p == nil {
					if inModel {
						fail("page %v missing, the model holds it (dirty %v)", k, mp.dirty)
					}
					continue
				}
				if !inModel {
					fail("cache kept or invented page %v", k)
				}
				if p.blk == nil {
					fail("page %v has no block", k)
				}
				if string(p.Bytes()) != mp.content {
					fail("page %v content diverged from model", k)
				}
				if p.Dirty != mp.dirty {
					fail("page %v dirty flag = %v, model %v", k, p.Dirty, mp.dirty)
				}
				residentPages++
				refs, inStore := store[p.blk]
				if p.Dirty {
					dirtyHere++
					wantBytes += int64(len(p.Bytes()))
					if inStore || p.blk.refs != 1 {
						fail("dirty page %v: block in store %v, refs %d; want a private block", k, inStore, p.blk.refs)
					}
				} else {
					if !inStore {
						fail("clean page %v holds a block outside the store", k)
					}
					store[p.blk] = refs + 1
					cleanContents[mp.content] = true
				}
			}
			if o != nil && o.DirtyCount() != dirtyHere {
				fail("table %d object %d dirtyKeys = %d, pages say %d", tab, ino, o.DirtyCount(), dirtyHere)
			}
			obj := mkey{tab: tab, ino: ino}
			if got := o != nil && o.Evicted(); got != m.evicted[obj] {
				fail("table %d object %d Evicted = %v, the model %v", tab, ino, got, m.evicted[obj])
			}
			tabDirty += dirtyHere
		}
		if tc.TotalDirty() != tabDirty {
			fail("table %d TotalDirty = %d, want %d", tab, tc.TotalDirty(), tabDirty)
		}
		wantDirty += tabDirty
	}
	for b, holders := range store {
		if b.refs != holders {
			fail("block refs = %d, held by %d clean pages", b.refs, holders)
		}
	}
	for content := range cleanContents {
		wantBytes += int64(len(content))
	}
	if g := reg.Gauge("mp.cache.dirty_pages").Value(); g != int64(wantDirty) {
		fail("dirty_pages gauge = %d, want %d", g, wantDirty)
	}
	if c.ResidentPages() != residentPages {
		fail("ResidentPages = %d, counted %d", c.ResidentPages(), residentPages)
	}
	if c.ResidentBytes() != wantBytes {
		fail("ResidentBytes = %d, recomputed %d", c.ResidentBytes(), wantBytes)
	}
	if g := reg.Gauge("mp.cache.resident_bytes").Value(); g != wantBytes {
		fail("resident_bytes gauge = %d, want %d", g, wantBytes)
	}
	if c.SharedBlocks() != len(cleanContents) {
		fail("SharedBlocks = %d, unique clean contents %d", c.SharedBlocks(), len(cleanContents))
	}
	ring := ringOrder(t, c)
	if len(ring) != residentPages-wantDirty || len(ring) != len(m.lru) {
		fail("ring holds %d pages, %d are clean, the model LRU %d", len(ring), residentPages-wantDirty, len(m.lru))
	}
	for i, p := range ring {
		if k := m.lru[i]; tabs[k.tab].Object(k.ino) == nil || tabs[k.tab].Object(k.ino).Page(k.idx) != p {
			fail("ring position %d is not the model's %v (ring %d long, model %v)", i, k, len(ring), m.lru)
		}
	}
	if c.overBudget() && len(ring) > 0 {
		fail("over budget with evictable clean pages on the ring")
	}
}

// ringOrder walks the LRU ring front to back, checking its links, and
// returns its pages.
func ringOrder(t *testing.T, c *Cache) []*Page {
	t.Helper()
	var out []*Page
	for p := c.lru.next; p != &c.lru; p = p.next {
		if p.next.prev != p || p.Dirty {
			t.Fatalf("ring broken at page %d (dirty %v)", p.idx, p.Dirty)
		}
		if p.obj.pages[p.idx] != p {
			t.Fatalf("ring holds page %d its object no longer files", p.idx)
		}
		out = append(out, p)
	}
	return out
}

// Regression: a refill of a clean page must take the old page off the
// ring. Left on it, the old page reaches the tail later and is evicted
// a second time: its block, already released by the refill, is dereffed
// again, and the new page's map entry is deleted under it.
func TestRefillUnlinksTheOldPage(t *testing.T) {
	reg := stats.NewRegistry()
	c := NewWithLimits(reg, "r.", 2, 0)
	content := func(b byte) []byte { return bytes.Repeat([]byte{b}, 512) }
	c.Fill(1, 0, content('a'), 1)
	c.Fill(1, 0, content('b'), 2) // refill: the page with 'a' must leave the ring
	c.Fill(1, 1, content('c'), 3)
	c.Fill(1, 2, content('d'), 4) // evicts (1,0), once
	c.Fill(1, 3, content('e'), 5) // evicts (1,1)
	o := c.Object(1)
	if o.Page(0) != nil || o.Page(1) != nil || o.Page(2) == nil || o.Page(3) == nil {
		t.Fatal("eviction took the wrong pages")
	}
	if n := len(ringOrder(t, c)); n != 2 || c.ResidentPages() != 2 {
		t.Fatalf("ring %d, resident %d; want 2 and 2", n, c.ResidentPages())
	}
	if c.ResidentBytes() != 1024 || c.SharedBlocks() != 2 || reg.CounterValue("r.cache.evictions") != 2 {
		t.Fatalf("bytes=%d blocks=%d evictions=%d, want 1024/2/2",
			c.ResidentBytes(), c.SharedBlocks(), reg.CounterValue("r.cache.evictions"))
	}
}

// Page must stay in the 64-byte size class: a fill allocates exactly
// one Page and nothing else, so BenchmarkFillDedup's B/op is one Page,
// and the bench gate would read any growth as a regression.
func TestPageFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Page{}); n > 64 {
		t.Fatalf("Page is %d bytes, past the 64-byte size class", n)
	}
}

// Object must stay in the 96-byte size class: a reader whose every read
// follows an invalidation (tankbench's lock_handoff) makes a new Object
// per read, and one more word moves it to the 112-byte class.
func TestObjectFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Object{}); n > 96 {
		t.Fatalf("Object is %d bytes, past the 96-byte size class", n)
	}
}

// TestInternConfirmsContentOnACollidingChain: two 4 KiB blocks that
// really share a CRC32C land on one chain, and the byte compare keeps
// them apart: each is stored on its own and served its own bytes, whether
// a fill files it or a flushed write promotes it.
func TestInternConfirmsContentOnACollidingChain(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg, "x.")
	a := bytes.Repeat([]byte("a"), 4096)
	b := collide(a, 2048)
	if bytes.Equal(a, b) || hash(a) != hash(b) {
		t.Fatal("test is vacuous: the two blocks do not collide")
	}
	h := hash(a)

	c.Fill(1, 0, a, 1)
	c.Fill(2, 0, b, 1)
	pa, pb := c.Object(1).Page(0), c.Object(2).Page(0)
	if pa.blk == pb.blk {
		t.Fatal("two contents with one CRC32C share a block")
	}
	if !bytes.Equal(pa.Bytes(), a) || !bytes.Equal(pb.Bytes(), b) {
		t.Fatal("a colliding fill was served the other's bytes")
	}
	if c.blocks[h] != pb.blk || pb.blk.next != pa.blk {
		t.Fatal("test is vacuous: the two blocks are not on one chain")
	}
	// Each content finds its own block, and only its own, from a fill and
	// from a flushed write.
	if c.Fill(3, 0, a, 2); c.Object(3).Page(0).blk != pa.blk {
		t.Fatal("a's content on a colliding chain was not shared")
	}
	c.Write(4, 0, b, 1)
	c.MarkClean(4, 0)
	if p := c.Lookup(4, 0); p == nil || p.blk != pb.blk || !bytes.Equal(p.Bytes(), b) {
		t.Fatal("b's flushed write was not shared with b's block")
	}
	if pa.blk.refs != 2 || pb.blk.refs != 2 {
		t.Fatalf("refs: a %d (want 2), b %d (want 2)", pa.blk.refs, pb.blk.refs)
	}
	if got := reg.CounterValue("x.cache.dedup_hits"); got != 2 {
		t.Fatalf("dedup_hits = %d, want 2 (a's second fill, b's promotion)", got)
	}
	// Unlinking the head of the chain makes its successor the head, with
	// its bytes.
	c.Drop(2)
	c.Drop(4)
	if c.blocks[h] != pa.blk || pa.blk.next != nil || !bytes.Equal(pa.Bytes(), a) {
		t.Fatal("dropping b's pages disturbed a's block on the same chain")
	}
	// b filled again goes to the head; unlinking the tail leaves it.
	c.Fill(5, 0, b, 1)
	pb = c.Object(5).Page(0)
	if c.blocks[h] != pb.blk || pb.blk.next != pa.blk {
		t.Fatal("test is vacuous: b's refill is not the head of a's chain")
	}
	c.Drop(1)
	c.Drop(3)
	if c.blocks[h] != pb.blk || pb.blk.next != nil || !bytes.Equal(pb.Bytes(), b) {
		t.Fatal("dropping a's pages disturbed b's block on the same chain")
	}
	// The last block leaves the chain, and the chain with it.
	c.Drop(5)
	if _, ok := c.blocks[h]; ok || c.SharedBlocks() != 0 {
		t.Fatalf("an emptied chain stays: %d blocks", c.SharedBlocks())
	}
}

// collide returns a block of a's length that differs from a and has the
// same CRC32C: a's first byte flipped, and the four bytes at off chosen to
// bring the checksum back. A CRC is affine in its message's bits, so what
// flipping each of those 32 bits does to the checksum is a vector over
// GF(2), and the flips that cancel the first byte's change solve a 32×32
// linear system.
func collide(a []byte, off int) []byte {
	b := bytes.Clone(a)
	b[0] ^= 0xff
	base := hash(b)
	var basis, combo [32]uint32 // basis[p] has top bit p; combo[p] is the flips that make it
	for i := range 32 {
		b[off+i/8] ^= 1 << (i % 8)
		v, m := hash(b)^base, uint32(1)<<i
		b[off+i/8] ^= 1 << (i % 8)
		for p := 31; p >= 0 && v != 0; p-- {
			if v>>p&1 == 0 {
				continue
			}
			if basis[p] == 0 {
				basis[p], combo[p] = v, m
				break
			}
			v, m = v^basis[p], m^combo[p]
		}
	}
	var flips uint32
	for p, target := 31, base^hash(a); p >= 0; p-- {
		if target>>p&1 == 1 {
			target, flips = target^basis[p], flips^combo[p]
		}
	}
	for i := range 32 {
		if flips>>i&1 == 1 {
			b[off+i/8] ^= 1 << (i % 8)
		}
	}
	return b
}
